//! The per-thread memo of prepared workloads.
//!
//! Building a workload assembles its program, generates its inputs and
//! computes its expected output; a sweep needs only the program's decode
//! table and the machine the build leaves behind.  Builds are
//! deterministic, so each worker thread builds a (workload, extension)
//! pair once, keeps its decode table and its pristine machine, and
//! restores a working machine from that snapshot for every later run
//! instead of building again.
//!
//! Pristine images are kept once per distinct content: many kernels build
//! byte-identical images on several extensions, so a new image is
//! compared against the retained ones before it is stored.  The retained
//! bytes are capped by [`IMAGE_BUDGET`], and no one image may take more
//! than a quarter of it; a workload whose image is not kept (the large
//! applications', up to 1.4 MiB) keeps only its decode table and is built
//! for every run.  Build errors are never memoised.

use crate::scenario::{Cell, WorkloadRef};
use simdsim_emu::Machine;
use simdsim_isa::Decoded;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Upper bound on memo entries per thread; generous next to the catalog's
/// `workloads × exts` (well under 100), but a hard stop against unbounded
/// growth in a long-lived server fed pathological user scenarios.  A full
/// memo is cleared, images included.
const ENTRY_CAP: usize = 512;

/// Bytes of distinct pristine images one thread retains.
const IMAGE_BUDGET: usize = 1 << 20;

/// The largest image kept, so that one large application image (the
/// jpeg and mpeg2 ones are 0.8–1.4 MiB) cannot take the room of dozens of
/// kernel images, whichever a thread happens to build first.
const MAX_KEPT_IMAGE: usize = IMAGE_BUDGET / 4;

/// One (workload, extension) pair, prepared.
struct Prepared {
    dec: Rc<Decoded>,
    /// The built machine's registers (its own image is empty) and its
    /// image; `None` when the image did not fit the budget.
    pristine: Option<(Machine, Rc<[u8]>)>,
}

#[derive(Default)]
struct Memo {
    entries: HashMap<String, Rc<Prepared>>,
    /// Every distinct image the entries share.
    images: Vec<Rc<[u8]>>,
    /// Sum of `images`' lengths.
    image_bytes: usize,
}

impl Memo {
    /// Stores a fresh build of `key`.  Returns the entry and, when its
    /// image did not fit the budget, the built machine to run on.
    fn insert(
        &mut self,
        key: String,
        dec: Decoded,
        machine: Machine,
    ) -> (Rc<Prepared>, Option<Machine>) {
        if self.entries.len() >= ENTRY_CAP {
            *self = Memo::default();
        }
        let image = machine.image();
        let shared = match self.images.iter().find(|i| ***i == *image) {
            Some(i) => Some(Rc::clone(i)),
            None if image.len() <= MAX_KEPT_IMAGE
                && self.image_bytes + image.len() <= IMAGE_BUDGET =>
            {
                self.image_bytes += image.len();
                self.images.push(Rc::from(image));
                self.images.last().cloned()
            }
            None => None,
        };
        let (pristine, unkept) = match shared {
            Some(image) => {
                let mut regs = Machine::new(machine.ext(), 0);
                regs.reset_from_parts(&machine, &[]);
                (Some((regs, image)), None)
            }
            None => (None, Some(machine)),
        };
        let entry = Rc::new(Prepared {
            dec: Rc::new(dec),
            pristine,
        });
        self.entries.insert(key, Rc::clone(&entry));
        (entry, unkept)
    }
}

thread_local! {
    /// This thread's prepared workloads.
    static MEMO: RefCell<Memo> = RefCell::new(Memo::default());
    /// The machine every memo hit restores and runs on.  Each restore
    /// rewrites all of its state, so a run that failed or panicked
    /// half-way leaves nothing behind.
    static WORK: RefCell<Machine> = RefCell::new(Machine::new(simdsim_isa::Ext::Mmx64, 0));
}

/// Calls `f` with `cell`'s decode table and a machine in the state a
/// fresh build of `cell`'s workload leaves, building the workload only
/// when this thread has not prepared it before (or could not keep its
/// image).
///
/// # Errors
///
/// The build's message when the workload is not in its registry.
pub(crate) fn with_prepared<R>(
    cell: &Cell,
    f: impl FnOnce(&Decoded, &mut Machine) -> R,
) -> Result<R, String> {
    let key = match &cell.workload {
        WorkloadRef::Kernel(n) => format!("kernel/{n}/{}", cell.ext),
        WorkloadRef::App(n) => format!("app/{n}/{}", cell.ext),
    };
    let hit = MEMO.with(|m| m.borrow().entries.get(&key).cloned());
    let entry = match hit {
        Some(entry) => entry,
        None => {
            let built = cell.workload.build(cell.ext)?;
            let dec = built.program.decode();
            let (entry, unkept) = MEMO.with(|m| m.borrow_mut().insert(key, dec, built.machine));
            if let Some(mut machine) = unkept {
                return Ok(f(&entry.dec, &mut machine));
            }
            entry
        }
    };
    match &entry.pristine {
        Some((regs, image)) => WORK.with(|w| {
            let mut work = w.borrow_mut();
            work.reset_from_parts(regs, image);
            Ok(f(&entry.dec, &mut work))
        }),
        None => {
            let mut built = cell.workload.build(cell.ext)?;
            Ok(f(&entry.dec, &mut built.machine))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{catalog, Scenario};

    /// Bytes of pristine images this thread's memo retains.
    fn retained_image_bytes() -> usize {
        MEMO.with(|m| m.borrow().image_bytes)
    }

    /// One cell per (workload, extension) pair of a scenario without
    /// overrides.
    fn pairs(scenario: &Scenario) -> Vec<Cell> {
        let mut cells = scenario.expand();
        cells.retain(|c| c.way == scenario.ways[0]);
        cells
    }

    /// A machine's registers (as text) and its image.
    fn state(m: &Machine) -> (String, Vec<u8>) {
        let mut regs = Machine::new(m.ext(), 0);
        regs.reset_from_parts(m, &[]);
        (format!("{regs:?}"), m.image().to_vec())
    }

    /// Timing barely depends on data, so equal cycle counts would not
    /// show a stale input byte; this compares the machine itself.
    #[test]
    fn every_run_starts_from_the_state_a_fresh_build_leaves() {
        std::thread::spawn(|| {
            let cells = pairs(&catalog::fig4());
            for pass in 0..2 {
                for cell in &cells {
                    let fresh = cell.workload.build(cell.ext).expect("kernel builds");
                    with_prepared(cell, |dec, m| {
                        let label = cell.label();
                        assert!(state(m) == state(&fresh.machine), "{label}, pass {pass}");
                        // Leave the working machine dirty for the next cell.
                        m.run_decoded(dec, &mut simdsim_emu::NullSink, cell.instr_limit)
                            .expect("kernel runs");
                    })
                    .expect("kernel builds");
                }
            }
        })
        .join()
        .expect("memo thread");
    }

    #[test]
    fn kernel_images_are_shared_and_app_images_stay_within_the_budget() {
        std::thread::spawn(|| {
            let mut built = 0;
            for cell in pairs(&catalog::fig4()) {
                with_prepared(&cell, |_, m| built += m.mem_size()).expect("kernel builds");
            }
            let kernels = retained_image_bytes();
            assert!(
                kernels > 0 && 2 * kernels < built,
                "{kernels} bytes kept of {built} built"
            );
            for cell in pairs(&catalog::fig5()) {
                with_prepared(&cell, |_, _| ()).expect("app builds");
                assert!(retained_image_bytes() <= IMAGE_BUDGET, "{}", cell.label());
            }
            assert!(
                retained_image_bytes() >= kernels,
                "a kernel image was dropped"
            );
        })
        .join()
        .expect("memo thread");
    }
}
