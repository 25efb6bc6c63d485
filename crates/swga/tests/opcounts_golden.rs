//! Frozen modeled costs of the instrumented software GA.
//!
//! `CountingGa` charges the operation mix of the paper's C program on
//! the PowerPC 405, and the §IV-C speedup figures are computed from
//! those counts. How the host executes a run (ROM lookup versus `f64`
//! math, prefix-sum versus linear-scan selection) must never move them,
//! so the exact `OpCounts`, evaluation counts and best chromosome of
//! every paper function at the small, rtl and heavy job shapes
//! (pop/gens 8/2, 32/16, 128/64; XR 10, MR 1, seed 0x2961) are pinned
//! here. The figures were recorded from the linear-scan implementation.

use ga_core::GaParams;
use ga_fitness::TestFunction;
use swga::{CountingGa, OpCounts};

/// (pop, gens, function, evaluations, best chromosome,
/// [alu, load, store, branch, mul, bus_read, call]).
type Row = (u8, u32, TestFunction, u64, u16, [u64; 7]);

#[rustfmt::skip]
const GOLDEN: [Row; 18] = [
    (8, 2, TestFunction::Bf6, 22, 0x4733, [573, 69, 94, 137, 32, 22, 46]),
    (8, 2, TestFunction::F2, 22, 0xa8e8, [571, 67, 94, 135, 32, 22, 46]),
    (8, 2, TestFunction::F3, 22, 0xa8f3, [573, 69, 94, 137, 32, 22, 46]),
    (8, 2, TestFunction::Mbf6_2, 22, 0x4733, [574, 70, 94, 138, 32, 22, 46]),
    (8, 2, TestFunction::Mbf7_2, 22, 0xa8f3, [573, 69, 94, 137, 32, 22, 46]),
    (8, 2, TestFunction::MShubert2D, 22, 0xa8f3, [573, 69, 94, 137, 32, 22, 46]),
    (32, 16, TestFunction::Bf6, 528, 0xe7f7, [22990, 8718, 2384, 10542, 1024, 528, 1296]),
    (32, 16, TestFunction::F2, 528, 0xfc05, [23011, 8739, 2384, 10563, 1024, 528, 1296]),
    (32, 16, TestFunction::F3, 528, 0xfefe, [23016, 8744, 2384, 10568, 1024, 528, 1296]),
    (32, 16, TestFunction::Mbf6_2, 528, 0xe70e, [22897, 8625, 2384, 10449, 1024, 528, 1296]),
    (32, 16, TestFunction::Mbf7_2, 528, 0x83b7, [22987, 8715, 2384, 10539, 1024, 528, 1296]),
    (32, 16, TestFunction::MShubert2D, 528, 0xc25d, [22947, 8675, 2384, 10499, 1024, 528, 1296]),
    (128, 64, TestFunction::Bf6, 8256, 0xffd8, [746848, 520800, 37184, 549600, 16384, 8256, 20544]),
    (128, 64, TestFunction::F2, 8256, 0xff00, [747774, 521726, 37184, 550526, 16384, 8256, 20544]),
    (128, 64, TestFunction::F3, 8256, 0xffff, [747357, 521309, 37184, 550109, 16384, 8256, 20544]),
    (128, 64, TestFunction::Mbf6_2, 8256, 0xff28, [746205, 520157, 37184, 548957, 16384, 8256, 20544]),
    (128, 64, TestFunction::Mbf7_2, 8256, 0xf7f9, [746161, 520113, 37184, 548913, 16384, 8256, 20544]),
    (128, 64, TestFunction::MShubert2D, 8256, 0xee37, [746312, 520264, 37184, 549064, 16384, 8256, 20544]),
];

#[test]
fn modeled_op_counts_are_frozen() {
    for (pop, gens, f, evaluations, best_chrom, [alu, load, store, branch, mul, bus_read, call]) in
        GOLDEN
    {
        let params = GaParams::new(pop, gens, 10, 1, 0x2961);
        let run = CountingGa::new(params, |c| f.eval_u16(c)).run();
        let want = OpCounts {
            alu,
            load,
            store,
            branch,
            mul,
            bus_read,
            call,
        };
        let shape = format!("{} at {pop}/{gens}", f.name());
        assert_eq!(run.ops, want, "{shape}: modeled op counts moved");
        assert_eq!(run.evaluations, evaluations, "{shape}: evaluations");
        assert_eq!(run.best.chrom, best_chrom, "{shape}: best chromosome");
    }
}
