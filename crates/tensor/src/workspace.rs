//! Reusable scratch buffers for kernel lowering.
//!
//! Dense and grouped `Conv2d::forward`/`backward` lower to GEMM through
//! multi-megabyte column buffers; allocating them per call dominated
//! allocator traffic during supernet training. (Depthwise convolutions run
//! direct kernels and need no column buffers.) A [`Workspace`] owns a small set of grow-only `f32`
//! buffers that layers reuse across steps.
//!
//! # Contract
//!
//! * Buffer **contents are unspecified** on acquisition (stale data from the
//!   previous call); callers must fully overwrite, or zero what they
//!   accumulate into. `im2col` writes every element, so conv needs no
//!   clearing for its column buffer.
//! * Buffers are grow-only: a geometry change (new batch size, spatial dims,
//!   channel count) simply requests different lengths and the arena resizes;
//!   no explicit invalidation step is needed, and shrinking never happens, so
//!   steady-state training performs zero allocations.
//! * A `Workspace` is **not `Sync`** — it hands out overlapping `&mut`
//!   views across calls. Use one workspace per worker thread (each federated
//!   participant thread clones its model, and the clone carries its own
//!   workspace).

/// A grow-only arena of `f32` scratch buffers.
///
/// Cloning a `Workspace` yields an *empty* workspace (buffers are scratch,
/// not state), so cloning a model for a participant thread stays cheap.
#[derive(Debug, Default)]
pub struct Workspace {
    bufs: Vec<Vec<f32>>,
}

impl Clone for Workspace {
    fn clone(&self) -> Self {
        Workspace::new()
    }
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Returns `N` distinct scratch slices with the requested lengths.
    ///
    /// Slot `i` always maps to the same underlying buffer, so a caller using
    /// stable slot ordering gets stable reuse. Contents are unspecified.
    ///
    /// ```
    /// use fedrlnas_tensor::Workspace;
    /// let mut ws = Workspace::new();
    /// let [cols, dcols] = ws.buffers([6, 4]);
    /// cols.fill(1.0);
    /// dcols.fill(2.0);
    /// assert_eq!(cols.len(), 6);
    /// ```
    pub fn buffers<const N: usize>(&mut self, lens: [usize; N]) -> [&mut [f32]; N] {
        while self.bufs.len() < N {
            self.bufs.push(Vec::new());
        }
        let mut it = self.bufs.iter_mut();
        std::array::from_fn(|i| {
            let buf = it.next().expect("arena sized above");
            if buf.len() < lens[i] {
                buf.resize(lens[i], 0.0);
            }
            &mut buf[..lens[i]]
        })
    }

    /// Single-buffer convenience form of [`Workspace::buffers`].
    pub fn buffer(&mut self, len: usize) -> &mut [f32] {
        let [b] = self.buffers([len]);
        b
    }

    /// Total `f32` capacity currently held (diagnostics / tests).
    pub fn capacity(&self) -> usize {
        self.bufs.iter().map(|b| b.capacity()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_stable_and_grow_only() {
        let mut ws = Workspace::new();
        {
            let [a, b] = ws.buffers([4, 8]);
            a.fill(1.0);
            b.fill(2.0);
        }
        let cap_after_first = ws.capacity();
        {
            // Shrinking request: same buffers, shorter views, contents stale.
            let [a, b] = ws.buffers([2, 3]);
            assert_eq!(a, &[1.0, 1.0]);
            assert_eq!(b, &[2.0, 2.0, 2.0]);
        }
        assert_eq!(ws.capacity(), cap_after_first, "no realloc on shrink");
        {
            // Growth request reallocates once, then stays.
            let [a, _b] = ws.buffers([16, 8]);
            assert_eq!(a.len(), 16);
        }
    }

    #[test]
    fn clone_is_empty() {
        let mut ws = Workspace::new();
        let _ = ws.buffers([1024]);
        assert!(ws.capacity() >= 1024);
        let cloned = ws.clone();
        assert_eq!(cloned.capacity(), 0);
    }

    #[test]
    fn many_buffers_at_once() {
        let mut ws = Workspace::new();
        let [a, b, c] = ws.buffers([1, 2, 3]);
        a[0] = 1.0;
        b[1] = 2.0;
        c[2] = 3.0;
        assert_eq!((a.len(), b.len(), c.len()), (1, 2, 3));
    }
}
