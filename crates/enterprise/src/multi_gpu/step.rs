//! Stepping a fleet's devices on two host threads between exchanges.
//!
//! In the paper's multi-GPU design (§4.4) every GPU expands its frontier
//! and generates its queues at the same time; the GPUs meet only at the
//! level's bitmap exchange. [`Fleet::step_devices`] steps a level phase
//! the same way on the host: the calling thread steps the lower half of
//! the surviving devices while one persistent [`Worker`] steps the upper
//! half, and the per-device results come back in device order. Both
//! halves call the same phase function.
//!
//! The split is taken only when no surviving device is [`armed`]. An
//! unarmed phase cannot fail, and it touches only its own device's
//! memory, L2, clock and kernel records, so both thread counts give
//! bit-identical results. An armed fleet steps its devices in order on
//! the calling thread, because a device that fails must stop the devices
//! after it from running that phase: level replay, loss splices and the
//! golden fixtures rely on that order.
//!
//! The worker's half travels to it by value over a channel and comes back
//! the same way. A panic in either half is caught, every device is put
//! back, and then the first panic in device order resumes on the calling
//! thread with its original payload.

use super::{Fleet, PerDevice};
use crate::error::BfsError;
use gpu_sim::{Device, DeviceError};
use std::any::Any;
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

/// Whether `device` can fail a launch: a fault plan is installed (a
/// zero-rate plan included), the sanitizer is on, or a kernel deadline is
/// set.
fn armed(device: &Device) -> bool {
    device.fault_plan().is_some()
        || device.sanitizer().is_some()
        || device.kernel_deadline_ms().is_some()
}

/// What stopped one thread's half of a phase.
enum Stop {
    Failed(DeviceError),
    Panicked(Box<dyn Any + Send>),
}

/// Steps `ids` in order, stopping at the first error or panic.
fn in_order<R>(
    ids: &[usize],
    mut step: impl FnMut(usize) -> Result<R, DeviceError>,
) -> Result<Vec<R>, Stop> {
    ids.iter()
        .map(|&d| match panic::catch_unwind(AssertUnwindSafe(|| step(d))) {
            Ok(r) => r.map_err(Stop::Failed),
            Err(payload) => Err(Stop::Panicked(payload)),
        })
        .collect()
}

impl Fleet {
    /// Runs one level phase on every survivor, returning the per-device
    /// results in device order, or the first error in device order. With
    /// two or more survivors and none armed, the calling thread steps the
    /// lower half and the fleet's worker, spawned on first use, the upper
    /// half.
    pub(super) fn step_devices<R, F>(&mut self, phase: F) -> Result<Vec<R>, BfsError>
    where
        R: Send + 'static,
        F: Fn(&mut Device, &mut PerDevice) -> Result<R, DeviceError> + Copy + Send + 'static,
    {
        let (multi, parts) = (&mut self.multi, &mut self.parts);
        let alive = multi.alive_ids();
        if alive.len() < 2 || alive.iter().any(|&d| armed(multi.device_ref(d))) {
            return alive
                .into_iter()
                .map(|d| phase(multi.device(d), &mut parts[d]).map_err(BfsError::Device))
                .collect();
        }
        let (mine, theirs) = alive.split_at(alive.len() / 2);
        let at = theirs[0];
        let theirs: Vec<usize> = theirs.iter().map(|d| d - at).collect();
        let (mut devices, mut lent) = (multi.lend_from(at), parts.split_off(at));
        let (reply, replied) = mpsc::sync_channel(1);
        let job: Job = Box::new(move || {
            let out = in_order(&theirs, |i| phase(&mut devices[i], &mut lent[i]));
            let _ = reply.send((devices, lent, out));
        });
        let jobs = self.worker.get_or_insert_with(Worker::spawn).jobs.as_ref();
        jobs.expect("the step worker's queue is open").send(job).expect("the step worker runs");
        let own = in_order(mine, |d| phase(multi.device(d), &mut parts[d]));
        let (devices, lent, out) = receive(&replied).expect("the step worker returns every lend");
        multi.rejoin(devices);
        parts.extend(lent);
        let mut results = Vec::with_capacity(alive.len());
        for half in [own, out] {
            match half {
                Ok(r) => results.extend(r),
                Err(Stop::Failed(e)) => return Err(BfsError::Device(e)),
                Err(Stop::Panicked(payload)) => panic::resume_unwind(payload),
            }
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use crate::multi_gpu::{Fleet, MultiGpuConfig};
    use crate::validate::cpu_levels;
    use enterprise_graph::gen::kronecker;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A panic in a worker-side device's phase reaches the caller with its
    /// original message, after every device is back in the fleet.
    #[test]
    fn worker_panic_reaches_the_caller_with_every_device_back() {
        let g = kronecker(9, 8, 3);
        let cfg = MultiGpuConfig { sanitize: false, ..MultiGpuConfig::k40s(4) };
        let mut fleet = Fleet::new(cfg, &g);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            fleet.step_devices(|device, _| {
                if device.id() == 3 {
                    panic!("device 3 failed on {:?}", std::thread::current().name());
                }
                Ok(())
            })
        }))
        .expect_err("the phase panicked on device 3");
        let message = caught.downcast_ref::<String>().map(String::as_str);
        assert_eq!(message, Some("device 3 failed on Some(\"fleet-step\")"));
        for d in 0..4 {
            assert_eq!(fleet.device(d).id(), d);
        }
        let r = fleet.bfs(5);
        assert_eq!(r.levels, cpu_levels(&g, 5), "the fleet still traverses after the panic");
    }
}
