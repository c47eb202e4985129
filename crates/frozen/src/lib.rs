//! Zero-copy arena substrate for the frozen AEET format.
//!
//! The artifact lays every heavy structure (interner strings, global
//! order, derived dictionary, clustered postings) out as flat little-endian
//! arrays so an engine can memory-map the file and index into it directly.
//! This crate provides the three building blocks the data-structure crates
//! share:
//!
//! - [`FrozenBuf`]: an immutable byte buffer that is either a `mmap`-ed file
//!   (via a minimal `extern "C"` wrapper — dependencies are vendored, so no
//!   libc crate) or an 8-byte-aligned heap copy on platforms/filesystems
//!   where mapping fails. Extraction is bit-identical either way.
//! - [`FrozenSlice<T>`]: a validated, typed window into a `FrozenBuf`.
//!   Construction checks alignment and bounds once; afterwards it derefs to
//!   `&[T]` with zero per-access cost.
//! - [`Arena<T>`]: the storage enum the index structures hold — either an
//!   owned `Vec<T>` (built in memory, the mutable path) or a `FrozenSlice`
//!   (opened from disk, the zero-copy path). Both deref to `&[T]`, so all
//!   read paths are written once against plain slices.
//!
//! Only [`Pod`] types may live in an arena: fixed layout without padding,
//! any bit pattern valid, alignment at most 8 (the buffer's guaranteed
//! alignment).

use std::fmt;
use std::fs::File;
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::Arc;

/// Marker for types that can be reinterpreted from raw little-endian bytes.
///
/// # Safety
/// Implementors must guarantee: `#[repr(C)]`/`#[repr(transparent)]` layout
/// with no padding bytes, every bit pattern is a valid value, and
/// `align_of::<Self>() <= 8`.
pub unsafe trait Pod: Copy + 'static {}

/// The in-memory bytes of a [`Pod`] slice — on a little-endian host, exactly
/// the bytes the frozen format stores for it.
#[inline]
pub fn pod_bytes<T: Pod>(values: &[T]) -> &[u8] {
    // SAFETY: `Pod` types have no padding, so every byte of the slice is
    // initialized; `u8` has alignment 1 and the length is the slice's size.
    unsafe { std::slice::from_raw_parts(values.as_ptr() as *const u8, std::mem::size_of_val(values)) }
}

unsafe impl Pod for u8 {}
unsafe impl Pod for u16 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for f64 {}

/// An immutable, 8-byte-aligned byte buffer backing frozen slices.
pub enum FrozenBuf {
    /// A `PROT_READ, MAP_PRIVATE` file mapping (unmapped on drop).
    #[cfg(unix)]
    Mmap { ptr: *mut u8, len: usize },
    /// Heap fallback: the file copied into a `Vec<u64>` so the base pointer
    /// is 8-aligned (a `Vec<u8>` only guarantees alignment 1). `len` is the
    /// logical byte length; the last word may be partially used.
    Heap { words: Vec<u64>, len: usize },
}

// The mapping is PROT_READ and owned exclusively by the enum; sharing the
// raw pointer across threads is sound because no one can write through it.
unsafe impl Send for FrozenBuf {}
unsafe impl Sync for FrozenBuf {}

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;
    use std::os::raw::c_int;

    pub(crate) const PROT_READ: c_int = 1;
    pub(crate) const MAP_PRIVATE: c_int = 2;
    /// Linux: pre-fault the mapping up front. The open path reads every
    /// byte immediately (whole-file CRC), so batching the page-ins beats
    /// taking ~one minor fault per 4 KiB during the checksum scan.
    #[cfg(target_os = "linux")]
    pub(crate) const MAP_POPULATE: c_int = 0x8000;

    extern "C" {
        pub(crate) fn mmap(addr: *mut c_void, len: usize, prot: c_int, flags: c_int, fd: c_int, offset: i64) -> *mut c_void;
        pub(crate) fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

impl FrozenBuf {
    /// Maps `file` read-only. Fails (with the OS error) when the platform
    /// or filesystem refuses the mapping; callers fall back to
    /// [`FrozenBuf::heap_from_bytes`]. Zero-length files use the heap
    /// representation (a zero-length `mmap` is an error on Linux).
    #[cfg(unix)]
    pub fn mmap_file(file: &File) -> std::io::Result<Self> {
        use std::os::unix::io::AsRawFd;
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| std::io::Error::other("file too large to map"))?;
        if len == 0 {
            return Ok(Self::Heap { words: Vec::new(), len: 0 });
        }
        // SAFETY: a fresh PROT_READ/MAP_PRIVATE mapping of `len` bytes; the
        // pointer is checked against MAP_FAILED before use and unmapped in
        // Drop with the same length.
        #[cfg(target_os = "linux")]
        let flags = sys::MAP_PRIVATE | sys::MAP_POPULATE;
        #[cfg(not(target_os = "linux"))]
        let flags = sys::MAP_PRIVATE;
        let ptr = unsafe { sys::mmap(std::ptr::null_mut(), len, sys::PROT_READ, flags, file.as_raw_fd(), 0) };
        if ptr as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Self::Mmap { ptr: ptr as *mut u8, len })
    }

    #[cfg(not(unix))]
    pub fn mmap_file(_file: &File) -> std::io::Result<Self> {
        Err(std::io::Error::other("mmap unsupported on this platform"))
    }

    /// Copies `bytes` into an 8-aligned heap buffer.
    pub fn heap_from_bytes(bytes: &[u8]) -> Self {
        let n_words = bytes.len().div_ceil(8);
        let mut words = vec![0u64; n_words];
        if !bytes.is_empty() {
            // SAFETY: the destination holds n_words * 8 >= bytes.len() bytes
            // and u64 has no invalid bit patterns.
            unsafe {
                std::ptr::copy_nonoverlapping(bytes.as_ptr(), words.as_mut_ptr() as *mut u8, bytes.len());
            }
        }
        Self::Heap { words, len: bytes.len() }
    }

    /// The buffer contents.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            // SAFETY: the mapping is live for `len` bytes until Drop.
            Self::Mmap { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Self::Heap { words, len } => {
                // SAFETY: the vec holds at least `len` initialized bytes.
                unsafe { std::slice::from_raw_parts(words.as_ptr() as *const u8, *len) }
            }
        }
    }

    /// Byte length.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            #[cfg(unix)]
            Self::Mmap { len, .. } => *len,
            Self::Heap { len, .. } => *len,
        }
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this buffer is a live file mapping (vs a heap copy).
    pub fn is_mmap(&self) -> bool {
        match self {
            #[cfg(unix)]
            Self::Mmap { .. } => true,
            Self::Heap { .. } => false,
        }
    }
}

impl Drop for FrozenBuf {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Self::Mmap { ptr, len } = self {
            // SAFETY: pointer and length are exactly what mmap returned.
            unsafe {
                sys::munmap(*ptr as *mut std::ffi::c_void, *len);
            }
        }
    }
}

impl fmt::Debug for FrozenBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrozenBuf").field("len", &self.len()).field("mmap", &self.is_mmap()).finish()
    }
}

/// A validated typed window into a shared [`FrozenBuf`].
pub struct FrozenSlice<T: Pod> {
    buf: Arc<FrozenBuf>,
    /// Byte offset of the first element (already validated as aligned).
    off: usize,
    /// Number of `T` elements.
    len: usize,
    _marker: PhantomData<T>,
}

impl<T: Pod> FrozenSlice<T> {
    /// Creates a slice over `byte_len` bytes at `byte_off`, validating
    /// bounds, element-size divisibility and alignment of the concrete
    /// address. Misaligned or out-of-range windows are rejected, never UB.
    pub fn new(buf: Arc<FrozenBuf>, byte_off: usize, byte_len: usize) -> Result<Self, String> {
        let size = std::mem::size_of::<T>();
        assert!(size > 0 && std::mem::align_of::<T>() <= 8, "Pod contract violated");
        let end = byte_off.checked_add(byte_len).ok_or_else(|| "section range overflows".to_string())?;
        if end > buf.len() {
            return Err(format!("section [{byte_off}, {end}) out of file bounds {}", buf.len()));
        }
        if !byte_len.is_multiple_of(size) {
            return Err(format!("section length {byte_len} not a multiple of element size {size}"));
        }
        let addr = buf.as_bytes().as_ptr() as usize + byte_off;
        if !addr.is_multiple_of(std::mem::align_of::<T>()) {
            return Err(format!("section offset {byte_off} misaligned for element alignment {}", std::mem::align_of::<T>()));
        }
        Ok(Self { buf, off: byte_off, len: byte_len / size, _marker: PhantomData })
    }
}

impl<T: Pod> Clone for FrozenSlice<T> {
    fn clone(&self) -> Self {
        Self { buf: Arc::clone(&self.buf), off: self.off, len: self.len, _marker: PhantomData }
    }
}

impl<T: Pod> Deref for FrozenSlice<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: construction validated bounds, divisibility and alignment;
        // Pod guarantees every bit pattern is valid.
        unsafe { std::slice::from_raw_parts(self.buf.as_bytes().as_ptr().add(self.off) as *const T, self.len) }
    }
}

impl<T: Pod + fmt::Debug> fmt::Debug for FrozenSlice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Storage for one flat array of an index structure: owned while building,
/// frozen (borrowing an mmap or heap file image) after opening from disk.
#[derive(Clone, Debug)]
pub enum Arena<T: Pod> {
    /// Heap-built storage (the mutable build path).
    Owned(Vec<T>),
    /// Zero-copy storage into a frozen artifact.
    Frozen(FrozenSlice<T>),
}

impl<T: Pod> Arena<T> {
    /// An empty owned arena.
    pub const fn new() -> Self {
        Self::Owned(Vec::new())
    }

    /// Mutable access to the owned vector.
    ///
    /// # Panics
    /// Panics when the arena is frozen — build paths only run on owned
    /// storage; update paths copy-on-write into fresh owned arenas first.
    #[inline]
    pub fn as_mut_vec(&mut self) -> &mut Vec<T> {
        match self {
            Self::Owned(v) => v,
            Self::Frozen(_) => panic!("attempted to mutate a frozen arena"),
        }
    }

    /// Copies the contents into a fresh owned `Vec`.
    pub fn to_vec(&self) -> Vec<T> {
        self.as_slice().to_vec()
    }

    /// The contents as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match self {
            Self::Owned(v) => v,
            Self::Frozen(s) => s,
        }
    }

    /// Whether this arena borrows a frozen buffer (zero-copy) rather than
    /// owning heap storage.
    pub fn is_frozen(&self) -> bool {
        matches!(self, Self::Frozen(_))
    }

    /// Heap bytes owned by this arena (0 when frozen — the bytes belong to
    /// the shared file image).
    pub fn owned_bytes(&self) -> usize {
        match self {
            Self::Owned(v) => v.capacity() * std::mem::size_of::<T>(),
            Self::Frozen(_) => 0,
        }
    }
}

impl<T: Pod> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Pod> From<Vec<T>> for Arena<T> {
    fn from(v: Vec<T>) -> Self {
        Self::Owned(v)
    }
}

impl<T: Pod> From<FrozenSlice<T>> for Arena<T> {
    fn from(s: FrozenSlice<T>) -> Self {
        Self::Frozen(s)
    }
}

impl<T: Pod> Deref for Arena<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod + PartialEq> PartialEq for Arena<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod + Eq> Eq for Arena<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn heap_buf_round_trips_bytes() {
        let data: Vec<u8> = (0..37).collect();
        let buf = FrozenBuf::heap_from_bytes(&data);
        assert_eq!(buf.as_bytes(), &data[..]);
        assert_eq!(buf.len(), 37);
        assert!(!buf.is_mmap());
    }

    #[test]
    fn heap_buf_is_8_aligned() {
        let buf = FrozenBuf::heap_from_bytes(&[1, 2, 3]);
        assert_eq!(buf.as_bytes().as_ptr() as usize % 8, 0);
    }

    #[cfg(unix)]
    #[test]
    fn mmap_matches_heap() {
        let mut path = std::env::temp_dir();
        path.push(format!("aeetes-frozen-test-{}", std::process::id()));
        let data: Vec<u8> = (0u32..1000).flat_map(|x| x.to_le_bytes()).collect();
        {
            let mut f = File::create(&path).unwrap();
            f.write_all(&data).unwrap();
        }
        let mapped = FrozenBuf::mmap_file(&File::open(&path).unwrap()).unwrap();
        assert!(mapped.is_mmap());
        assert_eq!(mapped.as_bytes(), &data[..]);
        assert_eq!(mapped.as_bytes().as_ptr() as usize % 8, 0, "page-aligned mapping");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn zero_length_file_maps_to_empty_heap() {
        let mut path = std::env::temp_dir();
        path.push(format!("aeetes-frozen-empty-{}", std::process::id()));
        File::create(&path).unwrap();
        let buf = FrozenBuf::mmap_file(&File::open(&path).unwrap()).unwrap();
        assert!(buf.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn frozen_slice_reads_typed_data() {
        let values: Vec<u32> = vec![7, 11, 13, 17];
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let buf = Arc::new(FrozenBuf::heap_from_bytes(&bytes));
        let s = FrozenSlice::<u32>::new(buf, 0, bytes.len()).unwrap();
        assert_eq!(&*s, &values[..]);
    }

    #[test]
    fn pod_bytes_are_what_a_frozen_slice_reads_back() {
        let values: Vec<u16> = vec![0x0102, 0xFFFE, 7];
        let bytes = pod_bytes(&values);
        assert_eq!(bytes.len(), 6);
        let s = FrozenSlice::<u16>::new(Arc::new(FrozenBuf::heap_from_bytes(bytes)), 0, bytes.len()).unwrap();
        assert_eq!(&*s, &values[..]);
    }

    #[test]
    fn frozen_slice_rejects_bad_windows() {
        let buf = Arc::new(FrozenBuf::heap_from_bytes(&[0u8; 16]));
        assert!(FrozenSlice::<u32>::new(Arc::clone(&buf), 0, 17).is_err(), "out of bounds");
        assert!(FrozenSlice::<u32>::new(Arc::clone(&buf), 0, 6).is_err(), "not element-divisible");
        assert!(FrozenSlice::<u64>::new(Arc::clone(&buf), 4, 8).is_err(), "misaligned");
        assert!(FrozenSlice::<u32>::new(Arc::clone(&buf), usize::MAX, 8).is_err(), "offset overflow");
        assert!(FrozenSlice::<u32>::new(buf, 8, 8).is_ok());
    }

    #[test]
    fn arena_owned_and_frozen_agree() {
        let values: Vec<u64> = vec![1, 2, 3];
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let buf = Arc::new(FrozenBuf::heap_from_bytes(&bytes));
        let frozen: Arena<u64> = FrozenSlice::new(buf, 0, bytes.len()).unwrap().into();
        let owned: Arena<u64> = values.into();
        assert_eq!(owned, frozen);
        assert!(frozen.is_frozen());
        assert!(!owned.is_frozen());
        assert_eq!(frozen.owned_bytes(), 0);
        assert!(owned.owned_bytes() >= 24);
    }

    #[test]
    #[should_panic(expected = "frozen arena")]
    fn frozen_arena_rejects_mutation() {
        let buf = Arc::new(FrozenBuf::heap_from_bytes(&[0u8; 8]));
        let mut a: Arena<u64> = FrozenSlice::new(buf, 0, 8).unwrap().into();
        a.as_mut_vec().push(1);
    }
}
