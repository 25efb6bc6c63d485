//! Golden-value regression tests for the fitness ROMs.
//!
//! The ROM images are the ground truth of every experiment (they stand
//! in for the paper's pre-computed block-ROM contents), so any change
//! to the formulas, quantization or plateau handling must trip a test.
//! The checksums below were produced by this implementation and frozen;
//! spot values are human-verifiable from the printed formulas.

use ga_fitness::functions::quantize;
use ga_fitness::rom::FitnessRom;
use ga_fitness::TestFunction;

/// FNV-1a over the little-endian ROM bytes.
fn fnv1a(rom: &FitnessRom) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in rom.contents() {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[test]
fn rom_checksums_are_frozen() {
    let expected = [
        (TestFunction::Bf6, 0x0430_bb32_d9bc_6b97u64),
        (TestFunction::F2, 0x5099_64d1_b8ee_0c25),
        (TestFunction::F3, 0xbede_87bc_e65b_a225),
        (TestFunction::Mbf6_2, 0x58d6_a21d_6f47_5875),
        (TestFunction::Mbf7_2, 0x50f9_df5a_bdd0_cd48),
        (TestFunction::MShubert2D, 0x6451_7230_5909_4d23),
    ];
    for (f, want) in expected {
        let got = fnv1a(&FitnessRom::tabulate(f));
        assert_eq!(
            got,
            want,
            "{} ROM checksum changed: {:#018x} (update only if the formula change is intentional)",
            f.name(),
            got
        );
    }
}

#[test]
fn shared_roms_equal_the_quantized_reference_everywhere() {
    // All 6 × 65 536 entries: the cached image every engine reads is
    // exactly the f64 reference form, round-and-saturated.
    for f in TestFunction::ALL {
        let rom = f.rom();
        assert_eq!(rom.contents().len(), 1 << 16);
        for c in 0..=u16::MAX {
            let want = quantize(f.eval_f64(c));
            assert_eq!(rom.lookup(c), want, "{} at {c:#06x}", f.name());
            assert_eq!(f.eval_u16(c), want, "{} eval_u16 at {c:#06x}", f.name());
        }
        assert_eq!(rom, &FitnessRom::tabulate(f), "{} image", f.name());
    }
}

#[test]
fn spot_values_match_hand_computation() {
    // F2(255, 0) = 8·255 + 1020 = 3060; F2(0, 255) clamps to 0.
    assert_eq!(TestFunction::F2.eval_u16(0xFF00), 3060);
    assert_eq!(TestFunction::F2.eval_u16(0x00FF), 0);
    // F3(16, 4) = 8·16 + 4·4 = 144.
    assert_eq!(TestFunction::F3.eval_u16(0x1004), 144);
    // BF6(0) = 0·cos0/4e6 + 3200 = 3200.
    assert_eq!(TestFunction::Bf6.eval_u16(0), 3200);
    // mBF6_2(0) = 4096.
    assert_eq!(TestFunction::Mbf6_2.eval_u16(0), 4096);
    // mBF7_2(0, 0) = 32768.
    assert_eq!(TestFunction::Mbf7_2.eval_u16(0), 32768);
}

#[test]
fn global_optima_are_frozen() {
    let expected = [
        (TestFunction::Bf6, 4272u16, 0xFFF1u16), // 65 521
        (TestFunction::F2, 3060, 0xFF00),
        (TestFunction::F3, 3060, 0xFFFF),
        (TestFunction::Mbf6_2, 8184, 0xFFF1),
        (TestFunction::Mbf7_2, 63_995, 0xF7F9), // (x, y) = (247, 249)
        // Lowest encoding on the saturated 65535 plateau (166 total;
        // the paper's (C2,4A)/(DB,4A) also lie on it).
        (TestFunction::MShubert2D, 65_535, 0x121E),
    ];
    for (f, max, argmax) in expected {
        assert_eq!(f.global_max(), max, "{} max", f.name());
        assert_eq!(f.global_argmax(), argmax, "{} argmax", f.name());
    }
}
