//! The complete GA module of Fig. 4: core + RNG + GA memory + FEM bank,
//! wired exactly as the paper's block diagram, plus the user-side
//! initialization module and a Chipscope-style probe (the core's
//! `stats_event` recorded into the run history).
//!
//! The per-cycle evaluation order implements the combinational wiring:
//! every module's registered outputs are sampled first, then each module
//! evaluates against those samples; the core's same-cycle combinational
//! outputs (RNG consume/seed wires) feed the RNG module inside the same
//! phase (an acyclic combinational path). A single commit latches the
//! whole system — one rising clock edge at 50 MHz.

use ga_fitness::fem::{Fem, FemBank, FemBankIn, FemIn};
use hwsim::vcd::VcdVar;
use hwsim::{Clocked, HandshakeMonitor, Sim, SimError, VcdWriter};

use crate::behavioral::{GenStats, Individual};
use crate::hwcore::{BankSums, GaCoreHw, Leg};
use crate::memory::GaMemory;
use crate::params::GaParams;
use crate::ports::GaCoreIn;
use crate::rngmod::RngModule;

/// User-driven inputs for one clock cycle (everything in [`GaCoreIn`]
/// that does not come from the wired modules).
#[derive(Debug, Clone, Copy, Default)]
pub struct UserIn {
    /// `start_GA` pulse.
    pub start_ga: bool,
    /// `ga_load` — parameter initialization mode.
    pub ga_load: bool,
    /// Parameter index bus.
    pub index: u8,
    /// Parameter value bus.
    pub value: u16,
    /// Initialization handshake strobe.
    pub data_valid: bool,
    /// Scan-test enable.
    pub test: bool,
    /// Scan-chain input.
    pub scanin: bool,
}

/// The clocked modules of the GA system (one commit = one clock edge).
pub struct GaModules {
    /// The GA IP core.
    pub core: GaCoreHw,
    /// The RNG module.
    pub rng: RngModule,
    /// The 256×32 GA memory.
    pub mem: GaMemory,
    /// The 8-slot fitness bank.
    pub fems: FemBank,
    /// Optional external fitness module "on another chip" (hybrid
    /// intrinsic EHW, Fig. 5). Driven by the bank's forwarded request.
    pub ext_fem: Option<Box<dyn Fem>>,
}

impl Clocked for GaModules {
    fn reset(&mut self) {
        self.core.reset();
        self.rng.reset();
        self.mem.reset();
        self.fems.reset();
        if let Some(e) = self.ext_fem.as_mut() {
            e.reset();
        }
    }

    fn commit(&mut self) {
        self.core.commit();
        self.rng.commit();
        self.mem.commit();
        self.fems.commit();
        if let Some(e) = self.ext_fem.as_mut() {
            e.commit();
        }
    }
}

/// Result of a hardware run.
#[derive(Debug, Clone, PartialEq)]
pub struct HwRun {
    /// Best individual (from the candidate bus when `GA_done` rose,
    /// fitness from the final stats event).
    pub best: Individual,
    /// Clock cycles from `start_GA` to `GA_done`.
    pub cycles: u64,
    /// Wall-clock seconds at the 50 MHz GA clock.
    pub seconds: f64,
    /// Per-generation statistics captured by the probe.
    pub history: Vec<GenStats>,
    /// RNG draws consumed (instrumentation).
    pub rng_draws: u64,
}

/// The complete, wired GA system.
pub struct GaSystem {
    modules: GaModules,
    sim: Sim,
    /// 3-bit fitness function select presented to the bank and core.
    pub fitfunc_select: u8,
    /// 2-bit preset bus.
    pub preset: u8,
    /// Clock ratio of the application domain to the GA domain. The
    /// paper's board uses a DCM to run the GA module at 50 MHz and the
    /// initialization/application (FEM) modules at 200 MHz — ratio 4.
    /// The level-based handshakes make the crossing safe; a higher
    /// ratio shortens every fitness transaction as seen in GA cycles.
    pub fast_domain_ratio: u32,
    history: Vec<GenStats>,
    vcd: Option<VcdCapture>,
    monitor: Option<HandshakeMonitor>,
    /// The current bank's running sums for the pair skip's selections.
    sums: BankSums,
}

/// Waveform capture of the Table II interface (the ModelSim view).
struct VcdCapture {
    writer: VcdWriter,
    candidate: VcdVar,
    fit_request: VcdVar,
    fit_valid: VcdVar,
    mem_address: VcdVar,
    mem_wr: VcdVar,
    ga_done: VcdVar,
    rn: VcdVar,
}

impl GaSystem {
    /// Build a system around a fitness bank, with the paper's CA RNG.
    pub fn new(fems: FemBank) -> Self {
        let mut modules = GaModules {
            core: GaCoreHw::new(),
            rng: RngModule::new_ca(1),
            mem: GaMemory::new(),
            fems,
            ext_fem: None,
        };
        modules.reset();
        GaSystem {
            modules,
            sim: Sim::new_50mhz(),
            fitfunc_select: 0,
            preset: 0,
            fast_domain_ratio: 1,
            history: Vec::new(),
            vcd: None,
            monitor: None,
            sums: BankSums::default(),
        }
    }

    /// Attach a protocol-assertion monitor to the fitness handshake;
    /// inspect it with [`GaSystem::protocol_monitor`] after the run.
    pub fn enable_protocol_monitor(&mut self) {
        // The slowest in-tree FEM (mShubert CORDIC) answers within ~350
        // fast-domain cycles; the drain bound only polices the *release*
        // side, which is a handful of cycles for every FEM.
        self.monitor = Some(HandshakeMonitor::new("fitness", 8));
    }

    /// The attached protocol monitor, if any.
    pub fn protocol_monitor(&self) -> Option<&HandshakeMonitor> {
        self.monitor.as_ref()
    }

    /// Start capturing a VCD waveform of the Table II interface signals
    /// (one sample per clock). Call [`GaSystem::finish_vcd`] to render.
    pub fn start_vcd(&mut self) {
        let mut writer = VcdWriter::new("ga_system", self.sim.period_ps());
        let candidate = writer.add_var("candidate", 16);
        let fit_request = writer.add_var("fit_request", 1);
        let fit_valid = writer.add_var("fit_valid", 1);
        let mem_address = writer.add_var("mem_address", 8);
        let mem_wr = writer.add_var("mem_wr", 1);
        let ga_done = writer.add_var("GA_done", 1);
        let rn = writer.add_var("rn", 16);
        self.vcd = Some(VcdCapture {
            writer,
            candidate,
            fit_request,
            fit_valid,
            mem_address,
            mem_wr,
            ga_done,
            rn,
        });
    }

    /// Stop capturing and render the VCD document, if capture was on.
    pub fn finish_vcd(&mut self) -> Option<String> {
        self.vcd.take().map(|c| c.writer.finish())
    }

    /// Replace the RNG module (e.g. with the LFSR kernel).
    pub fn with_rng(mut self, rng: RngModule) -> Self {
        self.modules.rng = rng;
        self
    }

    /// Attach an external fitness module (hybrid EHW configuration,
    /// Fig. 5). Route requests to it by selecting the bank slot that is
    /// declared [`ga_fitness::FemSlot::External`].
    pub fn with_external_fem(mut self, fem: Box<dyn Fem>) -> Self {
        self.modules.ext_fem = Some(fem);
        self
    }

    /// Access the wired modules (testbench backdoors).
    pub fn modules(&self) -> &GaModules {
        &self.modules
    }

    /// Elapsed cycles since construction.
    pub fn cycles(&self) -> u64 {
        self.sim.cycles()
    }

    /// The cycles among [`GaSystem::cycles`] stepped one by one; the
    /// rest were taken in bulk by the scan and pair skip (DESIGN.md,
    /// "Scan and pair skip").
    pub fn stepped_cycles(&self) -> u64 {
        self.sim.stepped_cycles()
    }

    /// One clock cycle of the whole system.
    pub fn step(&mut self, user: UserIn) {
        let select = self.fitfunc_select;
        let preset = self.preset;
        let ratio = self.fast_domain_ratio.max(1);
        let m = &mut self.modules;
        let mut stats: Option<(u32, u16, u16, u32)> = None;

        self.sim.step(m, |m| {
            // Sample registered outputs.
            let core_out = m.core.out();
            let ext_out = m.ext_fem.as_ref().map(|e| e.out()).unwrap_or_default();
            let fem_out = m.fems.out(select, ext_out.fit_value, ext_out.fit_valid);
            let rn = m.rng.rn();
            let mem_dout = m.mem.dout();
            let ext_req = m.fems.ext_request();

            // Core evaluation (combinational RNG wires come back).
            let comb = m.core.eval(&GaCoreIn {
                ga_load: user.ga_load,
                index: user.index,
                value: user.value,
                data_valid: user.data_valid,
                fit_value: fem_out.fit_value,
                fit_valid: fem_out.fit_valid,
                mem_data_in: mem_dout,
                start_ga: user.start_ga,
                test: user.test,
                scanin: user.scanin,
                preset,
                rn,
                fitfunc_select: select,
                fit_value_ext: 0,
                fit_valid_ext: false,
            });
            stats = comb.stats_event;

            // RNG sees the core's same-cycle wires.
            m.rng.eval(comb.rn_consume, comb.rn_seed_load);
            // Memory and FEM bank see the core's registered outputs.
            m.mem
                .eval(core_out.mem_address, core_out.mem_data_out, core_out.mem_wr);
            // The FEM bank (and external module) live in the fast
            // application-clock domain: they get `ratio` clock edges per
            // GA cycle, seeing the core's (stable) registered outputs.
            for sub in 0..ratio {
                let ext_now = m.ext_fem.as_ref().map(|e| e.out()).unwrap_or_default();
                let ext_req_now = m.fems.ext_request();
                m.fems.eval(FemBankIn {
                    fit_request: core_out.fit_request,
                    candidate: core_out.candidate,
                    select,
                    ext_value: ext_now.fit_value,
                    ext_valid: ext_now.fit_valid,
                });
                if let Some(e) = m.ext_fem.as_mut() {
                    e.eval(FemIn {
                        fit_request: if sub == 0 { ext_req } else { ext_req_now },
                        candidate: core_out.candidate,
                    });
                }
                // All but the last fast edge commit inside the GA cycle;
                // the final one rides the common commit below.
                if sub + 1 < ratio {
                    m.fems.commit();
                    if let Some(e) = m.ext_fem.as_mut() {
                        e.commit();
                    }
                }
            }
        });

        if let Some(mon) = self.monitor.as_mut() {
            let o = self.modules.core.out();
            let fem_o = self.modules.fems.out(select, 0, false);
            mon.observe(o.fit_request, fem_o.fit_valid);
        }

        if let Some(cap) = self.vcd.as_mut() {
            let t = self.sim.cycles();
            let o = self.modules.core.out();
            let fem_o = self.modules.fems.out(select, 0, false);
            cap.writer.change(cap.candidate, t, o.candidate as u64);
            cap.writer.change(cap.fit_request, t, o.fit_request as u64);
            cap.writer.change(cap.fit_valid, t, fem_o.fit_valid as u64);
            cap.writer.change(cap.mem_address, t, o.mem_address as u64);
            cap.writer.change(cap.mem_wr, t, o.mem_wr as u64);
            cap.writer.change(cap.ga_done, t, o.ga_done as u64);
            cap.writer.change(cap.rn, t, self.modules.rng.rn() as u64);
        }

        if let Some((gen, chrom, fitness, sum)) = stats {
            self.history.push(GenStats {
                gen,
                best_chrom: chrom as u32,
                best_fitness: fitness,
                fit_sum: sum,
            });
        }
    }

    /// True when something samples every cycle: a VCD, a protocol
    /// monitor or an external FEM. Then the run steps every cycle.
    fn watched(&self) -> bool {
        self.vcd.is_some() || self.monitor.is_some() || self.modules.ext_fem.is_some()
    }

    /// Take the breeding pair in progress in one host step (DESIGN.md,
    /// "Scan and pair skip"): leg by leg ([`Leg`]) up to the next
    /// `SelDraw` of parent 1 or `GenEnd`, leaving every module as the
    /// per-cycle `Sel*`/`Off*` states would. Only when nothing is
    /// [watched](GaSystem::watched), and only legs that fit the `budget`
    /// cycles left before the watchdog, so a run may stop between two
    /// legs and go on with `step()`. Returns whether it took any cycle.
    fn skip_pair(&mut self, budget: u64) -> bool {
        if self.watched() {
            return false;
        }
        let mut left = budget;
        while left > 0 {
            let Some(cycles) = self.skip_leg(left) else {
                break;
            };
            left -= cycles;
            if self.modules.core.at_pair_start() {
                break;
            }
        }
        left < budget
    }

    /// The scan skip alone: [`GaSystem::skip_pair`]'s selection leg,
    /// taken only from the scan's first cycle.
    #[cfg(test)]
    fn skip_scan(&mut self, budget: u64) -> bool {
        !self.watched()
            && self.modules.core.plan_scan(|_| 0).is_some()
            && self.skip_leg(budget).is_some()
    }

    /// Take the core's next [`Leg`] if it fits `budget` (a fitness wait
    /// up to the budget), counting its cycles on the clock. The core,
    /// the memory and the RNG are fast-forwarded; the FEM bank is still
    /// clocked, fed the request and candidate of each cycle, so its
    /// latency comes from the bank itself. Returns the cycles taken.
    fn skip_leg(&mut self, budget: u64) -> Option<u64> {
        let (select, ratio) = (self.fitfunc_select, self.fast_domain_ratio.max(1));
        let m = &mut self.modules;
        let leg = m.core.leg()?;
        let out = m.core.out();
        let cycles = match leg {
            Leg::Select => {
                let skip = m.core.plan_selection(m.rng.rn(), &m.mem, &mut self.sums)?;
                if skip.cycles() > budget {
                    return None;
                }
                m.core.skip_scan(skip, &mut m.mem, &mut m.rng);
                skip.cycles()
            }
            Leg::Breed(cycles) if cycles <= budget => {
                m.core.skip_breed(&mut m.rng, &mut m.mem);
                cycles
            }
            Leg::Store if Leg::STORE_CYCLES <= budget => {
                m.core.skip_store(&mut m.mem);
                Leg::STORE_CYCLES
            }
            Leg::Wait => {
                let mut cycles = 0;
                let mut answer = None;
                while answer.is_none() && cycles < budget.min(WAIT_SLICE) {
                    let fem = m.fems.out(select, 0, false);
                    clock_fems(&mut m.fems, out.fit_request, out.candidate, select, ratio);
                    cycles += 1;
                    answer = fem.fit_valid.then_some(fem.fit_value);
                }
                m.core.skip_wait(cycles, answer, &mut m.mem);
                self.sim.advance(cycles);
                return Some(cycles);
            }
            _ => return None,
        };
        // Outside the wait the request is low, under which an idle bank
        // stays as it is: clock it only while it drains.
        for _ in 0..cycles {
            if m.fems.is_idle() {
                break;
            }
            clock_fems(&mut m.fems, out.fit_request, out.candidate, select, ratio);
        }
        self.sim.advance(cycles);
        Some(cycles)
    }

    /// Program the parameter registers through the initialization
    /// handshake (§III-B.6, Table III), driven by the Fig. 4
    /// initialization-module FSM. Returns the cycles consumed.
    pub fn program(&mut self, params: &GaParams) -> u64 {
        params.validate().expect("invalid GA parameters");
        let start = self.sim.cycles();
        let mut init = crate::init::InitModule::new(params);
        init.reset();
        init.start();
        let mut guard = 0;
        while !init.out().done {
            let io = init.out();
            // Both modules evaluate in the same phase against each
            // other's registered outputs, then latch together.
            let ack = self.modules.core.out().data_ack;
            init.eval(ack);
            self.step(UserIn {
                ga_load: io.ga_load,
                index: io.index,
                value: io.value,
                data_valid: io.data_valid,
                ..Default::default()
            });
            init.commit();
            guard += 1;
            assert!(guard < 1000, "init handshake hung");
        }
        // One idle cycle for the core to fall back to Idle.
        self.step(UserIn::default());
        self.sim.cycles() - start
    }

    /// Pulse `start_GA` and run until `GA_done`. `max_cycles` is the
    /// watchdog bound.
    pub fn run(&mut self, max_cycles: u64) -> Result<HwRun, SimError> {
        self.run_with_deadline(max_cycles, None)
    }

    /// [`GaSystem::run`] with an additional wall-clock budget: the
    /// cycle watchdog bounds *simulated* time, the [`Deadline`] bounds
    /// *host* time (the serving layer's per-job timeout). The deadline
    /// is checked between cycles with amortized clock reads, so an
    /// in-flight cycle always completes.
    pub fn run_with_deadline(
        &mut self,
        max_cycles: u64,
        deadline: Option<&mut hwsim::Deadline>,
    ) -> Result<HwRun, SimError> {
        self.run_inner(max_cycles, deadline, None)
            .map(|(run, _)| run)
    }

    /// Run to `GA_done` with one scan-chain fault injection: at
    /// `at_cycle` cycles after `start_GA`, the FSM is frozen in test
    /// mode and `ops` is applied to the architectural state through the
    /// scan chain ([`GaSystem::scan_inject`]), then the run resumes.
    /// The returned flag reports whether the injection actually landed
    /// (`false` when the run finished before `at_cycle`). The
    /// scan-shift cycles count toward both the watchdog and the
    /// reported cycle total, exactly as they would on silicon.
    pub fn run_with_faults(
        &mut self,
        max_cycles: u64,
        at_cycle: u64,
        ops: &[hwsim::ScanBitOp],
    ) -> Result<(HwRun, bool), SimError> {
        self.run_inner(max_cycles, None, Some((at_cycle, ops)))
    }

    fn run_inner(
        &mut self,
        max_cycles: u64,
        mut deadline: Option<&mut hwsim::Deadline>,
        fault: Option<(u64, &[hwsim::ScanBitOp])>,
    ) -> Result<(HwRun, bool), SimError> {
        self.history.clear();
        let start = self.sim.cycles();
        let mut injected = false;
        self.step(UserIn {
            start_ga: true,
            ..Default::default()
        });
        let mut guard = self.sim.cycles() - start;
        while !self.modules.core.out().ga_done {
            if guard >= max_cycles {
                return Err(SimError::Timeout { cycles: guard });
            }
            if let Some(d) = deadline.as_deref_mut() {
                if d.expired() {
                    return Err(SimError::DeadlineExceeded { cycles: guard });
                }
            }
            if let Some((at, ops)) = fault {
                if !injected && guard >= at {
                    self.scan_inject(ops);
                    injected = true;
                    guard = self.sim.cycles() - start;
                    continue;
                }
            } else if self.skip_pair(max_cycles - guard) {
                guard = self.sim.cycles() - start;
                continue;
            }
            self.step(UserIn::default());
            guard = self.sim.cycles() - start;
        }
        Ok((self.finish_run(start), injected))
    }

    /// The run that reached `GA_done`, started at cycle `start`.
    fn finish_run(&mut self, start: u64) -> HwRun {
        let cycles = self.sim.cycles() - start;
        let best_fitness = self
            .history
            .last()
            .map(|s| s.best_fitness)
            .unwrap_or_default();
        HwRun {
            best: Individual {
                chrom: self.modules.core.out().candidate,
                fitness: best_fitness,
            },
            cycles,
            seconds: cycles as f64 * self.sim.period_ps() as f64 * 1e-12,
            history: std::mem::take(&mut self.history),
            rng_draws: self.modules.core.rng_draws(),
        }
    }

    /// Corrupt the core's architectural state **through the scan chain**
    /// (§III-C.2), the way a DFT-based SEU campaign would on silicon:
    ///
    /// 1. raise `test` for [`GaCoreHw::SCAN_LENGTH`] cycles, capturing
    ///    the chain at `scanout` while shifting zeros in;
    /// 2. keep `test` high another full length, feeding the captured
    ///    stream back in with `ops` applied to their chain positions;
    /// 3. drop `test`, which deserializes the chain into the registers
    ///    and lets the (frozen, unscanned) FSM state resume.
    ///
    /// The RNG holds (no consume wires fire in test mode) and the FSM
    /// state register is outside the chain, so the only disturbance is
    /// the injected bits — plus any overwrite the resuming FSM itself
    /// performs, which is precisely the masking a real campaign
    /// measures. Returns the *pre-fault* chain contents in scan order
    /// (position 0 first).
    pub fn scan_inject(&mut self, ops: &[hwsim::ScanBitOp]) -> Vec<bool> {
        let len = crate::hwcore::GaCoreHw::SCAN_LENGTH;
        // Phase 1: capture. The k-th bit out is chain position len-1-k.
        let mut shifted_out = Vec::with_capacity(len);
        for _ in 0..len {
            self.step(UserIn {
                test: true,
                scanin: false,
                ..Default::default()
            });
            shifted_out.push(self.modules.core.out().scanout);
        }
        // Phase 2: feed the captured stream straight back. Re-feeding
        // in capture order restores every bit to its original position
        // (first bit fed ends deepest in the chain). A fault at chain
        // position p therefore corrupts stream index len-1-p.
        let mut feed = shifted_out.clone();
        for op in ops {
            assert!(
                op.position < len,
                "scan position {} out of range",
                op.position
            );
            let k = len - 1 - op.position;
            feed[k] = op.kind.apply(feed[k]);
        }
        for &bit in &feed {
            self.step(UserIn {
                test: true,
                scanin: bit,
                ..Default::default()
            });
        }
        // Falling edge: deserialize and hand control back to the FSM.
        self.step(UserIn::default());
        let mut chain = shifted_out;
        chain.reverse(); // scan order: position 0 first
        chain
    }

    /// Program, then run: the full usage flow of §III-B.8.
    pub fn program_and_run(
        &mut self,
        params: &GaParams,
        max_cycles: u64,
    ) -> Result<HwRun, SimError> {
        self.program(params);
        self.run(max_cycles)
    }
}

/// A fitness wait that has not ended after this many cycles hands
/// control back to the run loop (which checks the deadline) and goes on
/// in the next skip: an External slot selected with no external module
/// attached never answers.
const WAIT_SLICE: u64 = 1 << 12;

/// One GA cycle of the FEM bank alone, as [`GaSystem::step`] clocks it
/// with no external module: `ratio` fast edges, each seeing the core's
/// registered request and candidate.
fn clock_fems(fems: &mut FemBank, fit_request: bool, candidate: u16, select: u8, ratio: u32) {
    for _ in 0..ratio {
        fems.eval(FemBankIn {
            fit_request,
            candidate,
            select,
            ext_value: 0,
            ext_valid: false,
        });
        fems.commit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::unpack;
    use ga_fitness::fem::FemOut;
    use ga_fitness::{CordicFem, FemBank, FemSlot, LookupFem, TestFunction};
    use proptest::prelude::*;

    fn system_for(f: TestFunction) -> GaSystem {
        GaSystem::new(FemBank::new(vec![FemSlot::Lookup(
            LookupFem::for_function(f),
        )]))
    }

    /// The per-cycle reference: `step()` from `start_GA` to `GA_done`
    /// under `run`'s watchdog rule, never taking the scan or pair skip.
    fn stepped_run(sys: &mut GaSystem, max_cycles: u64) -> Result<HwRun, SimError> {
        sys.history.clear();
        let start = sys.sim.cycles();
        sys.step(UserIn {
            start_ga: true,
            ..Default::default()
        });
        while !sys.modules.core.out().ga_done {
            let guard = sys.sim.cycles() - start;
            if guard >= max_cycles {
                return Err(SimError::Timeout { cycles: guard });
            }
            sys.step(UserIn::default());
        }
        Ok(sys.finish_run(start))
    }

    /// Everything a run leaves behind: every core register (outputs,
    /// `profile()` and `rng_draws()` included), both memory banks with
    /// the read register, the RNG module, the FEM bank's slots and
    /// registers, the bank's answer and the clock.
    fn end_state(sys: &GaSystem) -> (String, String, String, String, FemOut, u64) {
        let m = &sys.modules;
        (
            format!("{:?}", m.core),
            format!("{:?}", m.mem),
            format!("{:?}", m.rng),
            format!("{:?}", m.fems),
            m.fems.out(sys.fitfunc_select, 0, false),
            sys.cycles(),
        )
    }

    /// `run` (scan and pair skip allowed) and the per-cycle reference,
    /// each on a freshly built and programmed system, must agree on the
    /// result and on every piece of state they leave. Returns the cycles
    /// `run` stepped one by one.
    fn assert_skip_exact(make: impl Fn() -> GaSystem, params: &GaParams, max_cycles: u64) -> u64 {
        let mut fast = make();
        let mut slow = make();
        fast.program(params);
        slow.program(params);
        let before = fast.stepped_cycles();
        let got = fast.run(max_cycles);
        let want = stepped_run(&mut slow, max_cycles);
        assert_eq!(got, want, "{params:?}, max_cycles {max_cycles}");
        assert_eq!(fast.modules.core.profile(), slow.modules.core.profile());
        assert_eq!(
            end_state(&fast),
            end_state(&slow),
            "{params:?}, max_cycles {max_cycles}"
        );
        fast.stepped_cycles() - before
    }

    /// Program `sys` and step it to the first cycle of its first
    /// selection scan.
    fn step_to_scan_start(sys: &mut GaSystem, params: &GaParams) {
        sys.program(params);
        sys.step(UserIn {
            start_ga: true,
            ..Default::default()
        });
        while sys.modules.core.plan_scan(|_| 0).is_none() {
            sys.step(UserIn::default());
        }
    }

    #[test]
    fn scan_skip_is_taken_only_when_nothing_watches_and_it_fits() {
        let params = GaParams::new(32, 2, 10, 1, 0x2961);
        let mut sys = system_for(TestFunction::F3);
        step_to_scan_start(&mut sys, &params);
        let m = &sys.modules;
        let base = m.core.current_bank_base();
        let skip = m
            .core
            .plan_scan(|j| unpack(m.mem.word(base.wrapping_add(j))).fitness)
            .expect("at scan start");
        assert!(!sys.skip_scan(skip.cycles() - 1), "must fit the watchdog");
        sys.enable_protocol_monitor();
        assert!(!sys.skip_scan(u64::MAX), "a monitor sees every cycle");
        sys.monitor = None;
        sys.start_vcd();
        assert!(!sys.skip_scan(u64::MAX), "a waveform samples every cycle");
        sys.vcd = None;
        let before = sys.cycles();
        assert!(sys.skip_scan(skip.cycles()));
        assert_eq!(sys.cycles() - before, skip.cycles());
        assert!(!sys.skip_scan(u64::MAX), "only at the scan's first cycle");

        let mut ext = system_for(TestFunction::F3)
            .with_external_fem(Box::new(LookupFem::for_function(TestFunction::F3)));
        step_to_scan_start(&mut ext, &params);
        assert!(!ext.skip_scan(u64::MAX), "an external FEM stays per-cycle");
    }

    #[test]
    fn scan_skip_matches_stepping_on_the_fixed_grid() {
        for f in [TestFunction::Bf6, TestFunction::F2] {
            for pop in [2, 128] {
                for (xt, mt) in [(0, 0), (15, 15)] {
                    let params = GaParams::new(pop, 3, xt, mt, 0x2961);
                    assert_skip_exact(|| system_for(f), &params, 100_000_000);
                }
            }
        }
        // All-zero fitness: no member crosses the zero threshold, so
        // every scan ends on the `last` branch.
        for pop in [2, 128] {
            let params = GaParams::new(pop, 2, 10, 1, 0xB342);
            assert_skip_exact(|| GaSystem::new(FemBank::new(vec![])), &params, 100_000_000);
        }
    }

    #[test]
    fn scan_skip_matches_stepping_with_cordic_and_a_fast_fem_clock() {
        let params = GaParams::new(16, 3, 10, 1, 0x061F);
        for f in [TestFunction::Bf6, TestFunction::MShubert2D] {
            for ratio in [1, 4] {
                let make = || {
                    let mut sys =
                        GaSystem::new(FemBank::new(vec![FemSlot::Cordic(CordicFem::new(f))]));
                    sys.fast_domain_ratio = ratio;
                    sys
                };
                assert_skip_exact(make, &params, 100_000_000);
            }
        }
    }

    #[test]
    fn watchdog_mid_scan_times_out_exactly_as_stepping() {
        // Every bound from 0 past the end: many land inside a scan.
        let params = GaParams::new(4, 2, 10, 1, 0x2961);
        let total = system_for(TestFunction::F3)
            .program_and_run(&params, u64::MAX)
            .unwrap()
            .cycles;
        for bound in 0..=total + 1 {
            assert_skip_exact(|| system_for(TestFunction::F3), &params, bound);
        }
        // Pop 128: a window of bounds around mid-run covers every phase
        // of a long scan, plus a spread of round figures.
        let params = GaParams::new(128, 2, 10, 1, 0x2961);
        let total = system_for(TestFunction::F2)
            .program_and_run(&params, u64::MAX)
            .unwrap()
            .cycles;
        let windows = (total / 2..total / 2 + 7).chain([100, 1000, 1234, 5001, 20_000]);
        for bound in windows {
            assert_skip_exact(|| system_for(TestFunction::F2), &params, bound);
        }
    }

    #[test]
    fn vcd_capture_keeps_every_cycle() {
        // With a waveform attached the run steps every cycle: its VCD
        // equals the per-cycle reference's, scan addresses included.
        let params = GaParams::new(16, 2, 10, 1, 0x2961);
        let mut fast = system_for(TestFunction::F3);
        let mut slow = system_for(TestFunction::F3);
        fast.program(&params);
        slow.program(&params);
        fast.start_vcd();
        slow.start_vcd();
        let got = fast.run(10_000_000).unwrap();
        let want = stepped_run(&mut slow, 10_000_000).unwrap();
        assert_eq!(got, want);
        assert_eq!(fast.finish_vcd(), slow.finish_vcd());
    }

    /// Program `sys` and step it to the first cycle of its first
    /// breeding pair.
    fn step_to_pair_start(sys: &mut GaSystem, params: &GaParams) {
        sys.program(params);
        sys.step(UserIn {
            start_ga: true,
            ..Default::default()
        });
        while !sys.modules.core.at_pair_start() {
            sys.step(UserIn::default());
        }
    }

    #[test]
    fn pair_skip_is_taken_only_when_nothing_watches_and_it_fits() {
        let params = GaParams::new(32, 2, 10, 1, 0x2961);
        let make = || {
            let mut sys = system_for(TestFunction::F3);
            step_to_pair_start(&mut sys, &params);
            sys
        };
        // The per-cycle reference: the pair's length, and the state at
        // every cycle of it.
        let mut slow = make();
        let mut states = vec![end_state(&slow)];
        slow.step(UserIn::default());
        states.push(end_state(&slow));
        while !slow.modules.core.at_pair_start() {
            slow.step(UserIn::default());
            states.push(end_state(&slow));
        }
        let pair = states.len() as u64 - 1;
        assert!(pair >= 25, "a two-offspring pair takes at least 25 cycles");

        let mut sys = make();
        sys.enable_protocol_monitor();
        assert!(!sys.skip_pair(u64::MAX), "a monitor sees every cycle");
        sys.monitor = None;
        sys.start_vcd();
        assert!(!sys.skip_pair(u64::MAX), "a waveform samples every cycle");
        sys.vcd = None;
        assert!(!sys.skip_pair(0), "nothing fits no budget");
        let start = sys.cycles();
        assert!(sys.skip_pair(u64::MAX));
        assert_eq!(sys.cycles() - start, pair, "the whole pair, then stop");
        assert_eq!(sys.stepped_cycles(), slow.stepped_cycles() - pair);
        assert_eq!(end_state(&sys), states[pair as usize]);

        // A budget short of the pair takes the legs that fit and stops
        // on the cycle stepping would have reached.
        for budget in [1, 5, pair / 2, pair - 1] {
            let mut sys = make();
            let start = sys.cycles();
            sys.skip_pair(budget);
            let taken = sys.cycles() - start;
            assert!(taken <= budget, "budget {budget}: took {taken}");
            assert_eq!(end_state(&sys), states[taken as usize], "budget {budget}");
        }

        let mut ext = system_for(TestFunction::F3)
            .with_external_fem(Box::new(LookupFem::for_function(TestFunction::F3)));
        step_to_pair_start(&mut ext, &params);
        assert!(!ext.skip_pair(u64::MAX), "an external FEM stays per-cycle");
    }

    #[test]
    fn pair_skip_steps_only_the_cycles_outside_the_pairs() {
        // Per run: start_GA and Start, seven per initial member
        // (InitPopDraw, FitReq, three FitWait, Store, Update), the first
        // GenCheck, and ElitWrite, GenEnd and GenCheck per generation.
        for (pop, gens) in [(2, 3), (7, 2), (32, 16), (128, 2)] {
            let params = GaParams::new(pop, gens, 10, 1, 0x2961);
            let stepped = assert_skip_exact(|| system_for(TestFunction::F2), &params, u64::MAX);
            assert_eq!(stepped, 3 + 7 * pop as u64 + 3 * gens as u64, "{params:?}");
        }
    }

    #[test]
    fn pair_skip_matches_stepping_on_the_fixed_grid() {
        for f in [TestFunction::Bf6, TestFunction::F2] {
            for pop in [2, 7, 128] {
                for xt in [0, 15] {
                    for mt in [0, 15] {
                        let params = GaParams::new(pop, 3, xt, mt, 0x2961);
                        assert_skip_exact(|| system_for(f), &params, 100_000_000);
                    }
                }
            }
        }
        // The all-zero bank: Empty slots answer 0 after one cycle.
        for pop in [2, 7, 128] {
            let params = GaParams::new(pop, 2, 10, 1, 0xB342);
            assert_skip_exact(|| GaSystem::new(FemBank::new(vec![])), &params, 100_000_000);
        }
    }

    #[test]
    fn pair_skip_matches_stepping_with_cordic_and_a_fast_fem_clock() {
        // CORDIC waits run tens to hundreds of cycles; the bounds stop
        // runs inside the first generation's fitness waits too.
        let params = GaParams::new(7, 2, 12, 3, 0x061F);
        for f in [TestFunction::Bf6, TestFunction::MShubert2D] {
            for ratio in [1, 4] {
                let make = || {
                    let mut sys =
                        GaSystem::new(FemBank::new(vec![FemSlot::Cordic(CordicFem::new(f))]));
                    sys.fast_domain_ratio = ratio;
                    sys
                };
                let total = {
                    let mut probe = make();
                    probe.program_and_run(&params, u64::MAX).unwrap().cycles
                };
                let bounds = (0..40).map(|i| total / 2 + i * 7).chain([total, u64::MAX]);
                for bound in bounds {
                    assert_skip_exact(make, &params, bound);
                }
            }
        }
    }

    #[test]
    fn a_zeroed_pop_size_does_not_panic_in_a_debug_build() {
        // Force0 on chain position 19 (`pop_size` bit 3) turns pop 8 into
        // pop 0; the scan's last-member compare wraps like the 8-bit
        // decrement it models instead of overflowing.
        let params = GaParams::new(8, 4, 10, 1, 0x2961);
        let mut sys = system_for(TestFunction::F3);
        sys.program(&params);
        let op = hwsim::ScanBitOp {
            position: 19,
            kind: hwsim::BitFault::Force0,
        };
        let outcome = sys.run_with_faults(200_000, 300, &[op]);
        if let Ok((_, injected)) = outcome {
            assert!(injected);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn pair_skip_matches_stepping_on_random_parameters(
            pop in 2u8..=128,
            n_gens in 1u32..=3,
            xt in 0u8..=15,
            mt in 0u8..=15,
            seed in 1u16..=u16::MAX,
            func in 0usize..6,
            cordic in any::<bool>(),
            ratio in 1u32..=4,
        ) {
            let f = TestFunction::ALL[func];
            let params = GaParams::new(pop, n_gens, xt, mt, seed);
            let make = || {
                let slot = if cordic {
                    FemSlot::Cordic(CordicFem::new(f))
                } else {
                    FemSlot::Lookup(LookupFem::for_function(f))
                };
                let mut sys = GaSystem::new(FemBank::new(vec![slot]));
                sys.fast_domain_ratio = ratio;
                sys
            };
            assert_skip_exact(make, &params, 100_000_000);
        }

        #[test]
        fn scan_skip_matches_stepping_on_random_parameters(
            pop in 2u8..=128,
            n_gens in 1u32..=3,
            xt in 0u8..=15,
            mt in 0u8..=15,
            seed in 1u16..=u16::MAX,
            func in 0usize..6,
        ) {
            let f = TestFunction::ALL[func];
            let params = GaParams::new(pop, n_gens, xt, mt, seed);
            assert_skip_exact(|| system_for(f), &params, 100_000_000);
        }
    }

    #[test]
    fn program_loads_all_parameters() {
        let mut sys = system_for(TestFunction::F3);
        let params = GaParams::new(16, 0x0002_0005, 9, 3, 0xCAFE);
        let cycles = sys.program(&params);
        assert_eq!(sys.modules.core.programmed_params(), params);
        assert!(cycles > 12, "six writes need at least two cycles each");
    }

    #[test]
    fn run_reaches_done_and_outputs_best() {
        let mut sys = system_for(TestFunction::F3);
        let params = GaParams::new(8, 4, 10, 1, 0x2961);
        let run = sys.program_and_run(&params, 2_000_000).unwrap();
        assert!(run.cycles > 0);
        assert_eq!(run.history.len(), 5, "gen 0 + 4 generations");
        // Best fitness must equal the fitness of the output candidate.
        assert_eq!(run.best.fitness, TestFunction::F3.eval_u16(run.best.chrom));
    }

    #[test]
    fn candidate_bus_outputs_best_each_generation() {
        let mut sys = system_for(TestFunction::F2);
        let params = GaParams::new(8, 6, 10, 1, 0x061F);
        let run = sys.program_and_run(&params, 2_000_000).unwrap();
        // History is monotone (elitism) and ends at the reported best.
        let mut prev = 0;
        for s in &run.history {
            assert!(s.best_fitness >= prev);
            prev = s.best_fitness;
        }
        assert_eq!(run.best.fitness, prev);
    }

    #[test]
    fn trace_records_chipscope_series() {
        // The probe's history is the Chipscope capture: one (best
        // fitness, fitness sum) sample per generation, gen 0 included,
        // and each best is a real member the sum covers.
        let mut sys = system_for(TestFunction::F3);
        let params = GaParams::new(8, 3, 10, 1, 0xB342);
        let run = sys.program_and_run(&params, 2_000_000).unwrap();
        let gens: Vec<u32> = run.history.iter().map(|s| s.gen).collect();
        assert_eq!(gens, [0, 1, 2, 3]);
        for s in &run.history {
            assert_eq!(
                s.best_fitness,
                TestFunction::F3.eval_u16(s.best_chrom as u16)
            );
            assert!(s.fit_sum >= s.best_fitness as u32, "gen {}", s.gen);
        }
    }

    #[test]
    fn watchdog_times_out_on_empty_bank_deadlock_free() {
        // An Empty slot answers zero fitness: the system must still
        // complete (no deadlock) even with no real FEM.
        let mut sys = GaSystem::new(FemBank::new(vec![]));
        let params = GaParams::new(4, 2, 10, 1, 0x2961);
        let run = sys.program_and_run(&params, 1_000_000).unwrap();
        assert_eq!(run.best.fitness, 0);
    }

    #[test]
    fn restart_reruns_from_fresh_state() {
        let mut sys = system_for(TestFunction::F3);
        let params = GaParams::new(8, 3, 10, 1, 0xAAAA);
        let run1 = sys.program_and_run(&params, 2_000_000).unwrap();
        // Second run without reprogramming: Done → Start on start_GA.
        let run2 = sys.run(2_000_000).unwrap();
        assert_eq!(run1.best, run2.best, "same seed ⇒ same result");
        assert_eq!(run1.history, run2.history);
    }

    #[test]
    fn scan_inject_captures_state_in_documented_order() {
        let mut sys = system_for(TestFunction::F3);
        let params = GaParams::new(8, 4, 10, 1, 0xA5C3);
        sys.program(&params);
        let chain = sys.scan_inject(&[]);
        assert_eq!(chain.len(), crate::hwcore::GaCoreHw::SCAN_LENGTH);
        // Chain head: seed[0..16], pop_size[16..24] (LSB first).
        let field = |lo: usize, w: usize| -> u64 {
            (0..w).fold(0u64, |v, b| v | ((chain[lo + b] as u64) << b))
        };
        assert_eq!(field(0, 16) as u16, 0xA5C3, "seed field");
        assert_eq!(field(16, 8) as u8, 8, "pop_size field");
        assert_eq!(field(24, 32) as u32, 4, "n_gens field");
    }

    #[test]
    fn scan_inject_with_no_ops_preserves_the_run() {
        let params = GaParams::new(8, 4, 10, 1, 0x2961);
        let mut golden_sys = system_for(TestFunction::F3);
        let golden = golden_sys.program_and_run(&params, 2_000_000).unwrap();

        let mut sys = system_for(TestFunction::F3);
        sys.program(&params);
        let (run, injected) = sys.run_with_faults(2_000_000, 800, &[]).unwrap();
        assert!(injected, "injection point is mid-run");
        assert_eq!(run.best, golden.best, "empty fault list is a no-op");
        assert_eq!(run.history, golden.history);
        assert_eq!(run.rng_draws, golden.rng_draws);
        assert!(
            run.cycles > golden.cycles,
            "the 2×{}-cycle scan shift must show up in the cycle count",
            crate::hwcore::GaCoreHw::SCAN_LENGTH
        );
    }

    #[test]
    fn scan_fault_on_generation_counter_hangs_the_fsm() {
        // Force the MSB of the generation counter (the last chain bit):
        // the Fig. 6 FSM terminates on `gen == n_gens` (an equality
        // compare, as synthesized), so a counter thrown *past* the
        // target can never match and the run must spin until the
        // watchdog fires — the canonical "hung" outcome class.
        let params = GaParams::new(8, 4, 10, 1, 0x2961);
        let mut sys = system_for(TestFunction::F3);
        sys.program(&params);
        let op = hwsim::ScanBitOp {
            position: crate::hwcore::GaCoreHw::SCAN_LENGTH - 1,
            kind: hwsim::BitFault::Force1,
        };
        let err = sys
            .run_with_faults(200_000, 800, &[op])
            .expect_err("corrupted gen counter cannot reach GA_done");
        assert!(matches!(err, SimError::Timeout { .. }), "got {err:?}");
    }

    #[test]
    fn run_finishing_before_the_injection_point_reports_no_injection() {
        let params = GaParams::new(8, 2, 10, 1, 0x2961);
        let mut sys = system_for(TestFunction::F3);
        sys.program(&params);
        let (run, injected) = sys
            .run_with_faults(2_000_000, u64::MAX, &[])
            .expect("clean run");
        assert!(!injected, "fault scheduled after GA_done never lands");
        assert!(run.cycles > 0);
    }

    #[test]
    fn preset_mode_runs_without_programming() {
        let mut sys = system_for(TestFunction::F3);
        sys.preset = 0b01; // Table IV Small: pop 32, 512 gens
        let run = sys.run(200_000_000).unwrap();
        assert_eq!(run.history.len(), 513);
        assert_eq!(run.best.fitness, 3060, "512 generations solve F3");
    }
}
