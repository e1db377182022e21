//! Stepping a fleet's devices on two host threads between exchanges.
//!
//! In the paper's multi-GPU design (§4.4) every GPU expands its frontier
//! and generates its queues on its own; the GPUs meet only at the level's
//! bitmap exchange. [`Fleet::step_devices`] steps a level phase the same
//! way on the host, with one rule for every fleet of two or more
//! survivors, whatever fault plan, sanitizer or kernel deadline they
//! carry: the calling thread steps the lower half of the survivors while
//! one persistent [`Worker`] steps the upper half, and every survivor runs
//! the whole phase whatever another device returns. The phase then fails
//! with the first device error in device order.
//!
//! A device's phase touches only its own memory, L2, clock, kernel
//! records and fault stream, so no device's phase depends on another's: a
//! run's results depend on its fault streams alone, not on the thread
//! count or the split point.
//!
//! The worker's half travels to it by value over a channel and comes back
//! the same way. A panic in either half is caught, every device is put
//! back, and then the first panic in device order resumes on the calling
//! thread with its original payload, before any device error is reported.

use super::{Fleet, PerDevice};
use crate::error::BfsError;
use gpu_sim::{Device, DeviceError};
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long either thread spins on its channel before blocking. A
/// traversal's phases usually follow each other within it, so a busy
/// fleet seldom pays a thread wake-up, and an idle one soon stops
/// spinning.
const SPIN: Duration = Duration::from_micros(100);

type Job = Box<dyn FnOnce() + Send>;

/// One thread's half of a phase: its results in device order and its
/// first device error, or the payload of a panic.
type Half<R> = thread::Result<(Vec<R>, Option<DeviceError>)>;

/// A fleet's second host thread: spawned on the fleet's first split phase
/// and joined when the fleet drops.
pub(super) struct Worker {
    jobs: Option<Sender<Job>>,
    thread: Option<JoinHandle<()>>,
}

impl Worker {
    fn spawn() -> Self {
        let (jobs, queue) = mpsc::channel::<Job>();
        let thread = thread::Builder::new()
            .name("fleet-step".into())
            .spawn(move || {
                while let Some(job) = receive(&queue) {
                    job();
                }
            })
            .expect("spawn the fleet's step worker");
        Worker { jobs: Some(jobs), thread: Some(thread) }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Closing the queue ends the worker's loop.
        self.jobs = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Receives from `rx`, spinning for [`SPIN`] before blocking; `None` once
/// every sender is gone.
fn receive<T>(rx: &Receiver<T>) -> Option<T> {
    let start = Instant::now();
    loop {
        match rx.try_recv() {
            Ok(v) => return Some(v),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) if start.elapsed() < SPIN => std::hint::spin_loop(),
            Err(TryRecvError::Empty) => return rx.recv().ok(),
        }
    }
}

/// Steps every device of `ids` in order, each whatever another returned,
/// and catches a panic.
fn step_half<R>(ids: &[usize], mut step: impl FnMut(usize) -> Result<R, DeviceError>) -> Half<R> {
    panic::catch_unwind(AssertUnwindSafe(|| {
        let (mut results, mut first) = (Vec::with_capacity(ids.len()), None);
        for &d in ids {
            match step(d) {
                Ok(r) => results.push(r),
                Err(e) => first = first.or(Some(e)),
            }
        }
        (results, first)
    }))
}

impl Fleet {
    /// Runs one level phase on every survivor, each to its end whatever
    /// another returns, and returns the per-device results in device
    /// order, or the first device error in device order. With two or more
    /// survivors the calling thread steps the lower half and the fleet's
    /// worker, spawned on first use, the upper half.
    pub(super) fn step_devices<R, F>(&mut self, phase: F) -> Result<Vec<R>, BfsError>
    where
        R: Send + 'static,
        F: Fn(&mut Device, &mut PerDevice) -> Result<R, DeviceError> + Copy + Send + 'static,
    {
        let alive = self.multi.alive_ids();
        let split = if alive.len() < 2 { alive.len() } else { alive.len() / 2 };
        #[cfg(test)]
        let split = if self.serial { alive.len() } else { split };
        let (mine, theirs) = alive.split_at(split);
        let (multi, parts) = (&mut self.multi, &mut self.parts);
        let replied = theirs.first().map(|&at| {
            let theirs: Vec<usize> = theirs.iter().map(|d| d - at).collect();
            let (mut devices, mut lent) = (multi.lend_from(at), parts.split_off(at));
            let (reply, replied) = mpsc::sync_channel(1);
            let job: Job = Box::new(move || {
                let out = step_half(&theirs, |i| phase(&mut devices[i], &mut lent[i]));
                let _ = reply.send((devices, lent, out));
            });
            let jobs = self.worker.get_or_insert_with(Worker::spawn).jobs.as_ref();
            jobs.expect("the step worker's queue is open").send(job).expect("the step worker runs");
            replied
        });
        let own = step_half(mine, |d| phase(multi.device(d), &mut parts[d]));
        let out = replied.map_or(Ok((Vec::new(), None)), |replied| {
            let (devices, lent, out) =
                receive(&replied).expect("the step worker returns every lend");
            multi.rejoin(devices);
            parts.extend(lent);
            out
        });
        let ((mut results, own_error), (theirs, their_error)) = match (own, out) {
            (Ok(own), Ok(out)) => (own, out),
            (Err(payload), _) | (_, Err(payload)) => panic::resume_unwind(payload),
        };
        match own_error.or(their_error) {
            Some(e) => Err(BfsError::Device(e)),
            None => {
                results.extend(theirs);
                Ok(results)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::multi_gpu::{Fleet, MultiGpuConfig};
    use crate::validate::cpu_levels;
    use enterprise_graph::gen::kronecker;
    use gpu_sim::DeviceError;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A panic in a worker-side device's phase reaches the caller with its
    /// original message, after every device is back in the fleet, also
    /// when a caller-side device's phase returned an error.
    #[test]
    fn worker_panic_reaches_the_caller_with_every_device_back() {
        let g = kronecker(9, 8, 3);
        let cfg = MultiGpuConfig { sanitize: false, ..MultiGpuConfig::k40s(4) };
        let mut fleet = Fleet::new(cfg, &g);
        for caller_fails in [false, true] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                fleet.step_devices(move |device, _| match device.id() {
                    0 if caller_fails => Err(DeviceError::DeviceLost { device: 0 }),
                    3 => panic!("device 3 failed on {:?}", std::thread::current().name()),
                    _ => Ok(()),
                })
            }))
            .expect_err("the phase panicked on device 3");
            let message = caught.downcast_ref::<String>().map(String::as_str);
            let tag = format!("caller fails: {caller_fails}");
            assert_eq!(message, Some("device 3 failed on Some(\"fleet-step\")"), "{tag}");
            for d in 0..4 {
                assert_eq!(fleet.device(d).id(), d, "{tag}");
            }
        }
        let r = fleet.bfs(5);
        assert_eq!(r.levels, cpu_levels(&g, 5), "the fleet still traverses after the panic");
    }
}
