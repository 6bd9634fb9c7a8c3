//! Vendored, dependency-free subset of the `parking_lot` API.
//!
//! The build environment has no access to crates.io; this shim wraps
//! `std::sync` primitives behind `parking_lot`'s panic-free (non-poisoning)
//! interface. Poisoned locks are transparently recovered — a panicked
//! writer's partial state is the caller's problem, exactly as under real
//! `parking_lot`.

pub use std::sync::MutexGuard;

/// Non-poisoning mutex over [`std::sync::Mutex`].
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// Non-poisoning condition variable over [`std::sync::Condvar`].
///
/// API note: `wait` consumes and returns the guard (`std` style) rather
/// than taking `&mut guard` as real `parking_lot` does — the `&mut` form
/// cannot be built safely on top of `std`'s consuming wait, and every
/// caller in this workspace is vendored alongside the shim.
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    pub fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Blocks until notified, releasing `guard` while parked. Spurious
    /// wakeups are possible; callers re-check their predicate.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0.wait(guard).unwrap_or_else(|e| e.into_inner())
    }

    /// [`Self::wait`] in a loop until `condition` returns `false`.
    pub fn wait_while<'a, T, F: FnMut(&mut T) -> bool>(
        &self,
        guard: MutexGuard<'a, T>,
        condition: F,
    ) -> MutexGuard<'a, T> {
        self.0.wait_while(guard, condition).unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn condvar_wakes_waiter() {
        use std::sync::Arc;
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (lock, cvar) = &*p2;
            let mut ready = lock.lock();
            while !*ready {
                ready = cvar.wait(ready);
            }
            *ready
        });
        {
            let (lock, cvar) = &*pair;
            *lock.lock() = true;
            cvar.notify_all();
        }
        assert!(t.join().unwrap());
    }

    #[test]
    fn condvar_wait_while_blocks_until_predicate_clears() {
        use std::sync::Arc;
        let pair = Arc::new((Mutex::new(0usize), Condvar::new()));
        let p2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (lock, cvar) = &*p2;
            let guard = cvar.wait_while(lock.lock(), |n| *n < 3);
            *guard
        });
        let (lock, cvar) = &*pair;
        for _ in 0..3 {
            *lock.lock() += 1;
            cvar.notify_all();
        }
        assert_eq!(t.join().unwrap(), 3);
    }

    #[test]
    fn lock_survives_poison() {
        let lock = std::sync::Arc::new(Mutex::new(7));
        let l2 = lock.clone();
        let _ = std::thread::spawn(move || {
            let _g = l2.lock();
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*lock.lock(), 7);
    }
}
