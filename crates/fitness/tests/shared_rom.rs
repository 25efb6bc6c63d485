//! The process-wide fitness ROMs are built once, even when the first
//! callers race. This file holds a single test so the process starts
//! with every ROM cold and the build counter at zero.

use std::sync::Barrier;

use ga_fitness::TestFunction;

#[test]
fn racing_first_callers_share_one_build() {
    // mShubert2D is the slowest image to tabulate, so all four threads
    // arrive while the first build is still running.
    let f = TestFunction::MShubert2D;
    assert_eq!(TestFunction::rom_builds(), 0, "no ROM built yet");
    let start = Barrier::new(4);
    let images: Vec<usize> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    f.rom().contents().as_ptr() as usize
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect()
    });
    assert!(images.iter().all(|&p| p == images[0]), "one image for all");
    assert_eq!(TestFunction::rom_builds(), 1, "exactly one tabulation");
    // Later readers, through either path, hit the same image.
    assert_eq!(f.rom().contents().as_ptr() as usize, images[0]);
    assert_eq!(f.eval_u16(0x121E), 65_535);
    assert_eq!(TestFunction::rom_builds(), 1);
}
