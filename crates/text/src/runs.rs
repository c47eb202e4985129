//! Variable-length runs over two flat arenas: the layout of the interner's
//! strings, of the dictionary's surface forms and token sequences, and of
//! the synonym rule table's sides.

use aeetes_frozen::{Arena, Pod};

/// Runs of `T` back to back in one item arena, cut by a monotone `u32`
/// offset arena of `len + 1` entries: run `i` is
/// `items[offsets[i] - offsets[0]..offsets[i + 1] - offsets[0]]`.
///
/// The offsets start at 0 unless the runs continue others (a later part of a
/// [`Dictionary`](crate::Dictionary)): offsets are positions in the whole
/// sequence, so runs that continue one another concatenate with no offset
/// rewritten. Either arena is owned or borrows a frozen artifact.
#[derive(Debug, Clone)]
pub struct Runs<T: Pod> {
    items: Arena<T>,
    offsets: Arena<u32>,
}

/// Room left in an owned arena (none in a frozen one).
fn spare<T: Pod>(arena: &Arena<T>) -> usize {
    match arena {
        Arena::Owned(v) => v.capacity() - v.len(),
        Arena::Frozen(_) => 0,
    }
}

impl<T: Pod> Runs<T> {
    /// Validates arenas that come from outside: the offset array is
    /// non-empty, starts at 0, is monotonic and ends at `items.len()`.
    /// Errors name the runs `what` are.
    pub fn new(items: Arena<T>, offsets: Arena<u32>, what: &str) -> Result<Self, String> {
        let n = offsets.len().checked_sub(1).ok_or_else(|| format!("{what} offsets empty"))?;
        if offsets[0] != 0 {
            return Err(format!("{what} offsets do not start at 0"));
        }
        if !offsets.windows(2).fold(true, |ok, w| ok & (w[0] <= w[1])) {
            return Err(format!("{what} offsets not monotonic"));
        }
        if offsets[n] as usize != items.len() {
            return Err(format!("{what} offsets end at {} but the arena holds {}", offsets[n], items.len()));
        }
        Ok(Self { items, offsets })
    }

    /// No runs, owned, continuing runs that end at item `start`.
    pub fn empty_at(start: u32) -> Self {
        Self { items: Vec::new().into(), offsets: vec![start].into() }
    }

    /// The owned concatenation of `parts`, with the last one's spare room.
    ///
    /// # Panics
    /// Panics unless each part's items end at its last offset and each part
    /// continues the one before: its offsets start where that one's end.
    /// Offsets into the result are only right then, and a string arena's
    /// soundness rests on them.
    pub(crate) fn concat<'a>(parts: impl Iterator<Item = &'a Self> + Clone) -> Self
    where
        T: 'a,
    {
        let last = parts.clone().last().expect("at least one part");
        let (items, runs) = parts
            .clone()
            .fold((spare(&last.items), spare(&last.offsets)), |(i, r), p| (i + p.items.len(), r + p.len()));
        let mut items = Vec::with_capacity(items);
        let mut offsets: Vec<u32> = Vec::with_capacity(runs + 1);
        for p in parts {
            assert_eq!(p.items.len(), (p.end() - p.offsets[0]) as usize, "a part's items end at its last offset");
            if let Some(&end) = offsets.last() {
                assert_eq!(p.offsets[0], end, "a concatenated part continues the one before");
            }
            items.extend_from_slice(&p.items);
            offsets.extend_from_slice(&p.offsets[usize::from(!offsets.is_empty())..]);
        }
        Self { items: items.into(), offsets: offsets.into() }
    }

    /// Appends one run.
    ///
    /// # Panics
    /// Panics when an arena is frozen, or when the end passes `u32::MAX`;
    /// then the run is not kept.
    pub fn push(&mut self, run: impl Iterator<Item = T>) {
        let items = self.items.as_mut_vec();
        let start = items.len();
        items.extend(run);
        let Ok(end) = u32::try_from(self.offsets[0] as usize + items.len()) else {
            // No item may lie past the last offset, or a part concatenated
            // after this one would read its runs at the wrong items.
            items.truncate(start);
            panic!("arena overflows u32 offsets");
        };
        self.offsets.as_mut_vec().push(end);
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether there are no runs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Run `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &[T] {
        let base = self.offsets[0];
        &self.items[(self.offsets[i] - base) as usize..(self.offsets[i + 1] - base) as usize]
    }

    /// Where the runs end, in items of the whole sequence.
    pub(crate) fn end(&self) -> u32 {
        *self.offsets.last().expect("offsets are never empty")
    }

    /// The item arena.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// The offset arena.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Whether both arenas are owned, so that runs can be pushed.
    pub(crate) fn is_owned(&self) -> bool {
        !self.items.is_frozen() && !self.offsets.is_frozen()
    }

    /// Room left for items and for runs: none when an arena is frozen.
    pub(crate) fn spare(&self) -> (usize, usize) {
        (spare(&self.items), spare(&self.offsets))
    }

    /// Heap bytes the two arenas own.
    pub fn owned_bytes(&self) -> usize {
        self.items.owned_bytes() + self.offsets.owned_bytes()
    }

    /// Makes room for exactly `items` more items in `runs` more runs.
    pub fn reserve_exact(&mut self, items: usize, runs: usize) {
        self.items.as_mut_vec().reserve_exact(items);
        self.offsets.as_mut_vec().reserve_exact(runs);
    }
}

/// UTF-8 strings as [`Runs`] of bytes: the layout of the interner's string
/// table and of the dictionary's surface forms.
///
/// The bytes are proved UTF-8, cut at character boundaries, once: by
/// [`StrArena::new`] for bytes that come from outside, by construction for
/// strings pushed and arenas concatenated. Reading a string never validates
/// again.
#[derive(Debug, Clone)]
pub(crate) struct StrArena(Runs<u8>);

impl StrArena {
    /// Validates arenas that come from outside: [`Runs::new`]'s offset
    /// checks, then one UTF-8 pass over the whole arena (std's SIMD
    /// validator) and a char-boundary check per offset, which together prove
    /// every string is itself valid UTF-8 without n separate validations.
    /// Errors name the strings `what` are.
    pub(crate) fn new(bytes: Arena<u8>, offsets: Arena<u32>, what: &str) -> Result<Self, String> {
        let runs = Runs::new(bytes, offsets, what)?;
        let all = std::str::from_utf8(runs.items()).map_err(|e| format!("{what} arena is not UTF-8: {e}"))?;
        if let Some(i) = (0..runs.len()).find(|&i| !all.is_char_boundary(runs.offsets()[i] as usize)) {
            return Err(format!("{what} {i} starts mid-character"));
        }
        Ok(Self(runs))
    }

    /// No strings, owned, continuing strings that end at byte `start`.
    pub(crate) fn empty_at(start: u32) -> Self {
        Self(Runs::empty_at(start))
    }

    /// The owned concatenation of `parts`, each continuing the one before,
    /// with the last one's spare room.
    pub(crate) fn concat<'a>(parts: impl Iterator<Item = &'a Self> + Clone) -> Self {
        Self(Runs::concat(parts.map(|p| &p.0)))
    }

    /// Appends `s`.
    ///
    /// # Panics
    /// As [`Runs::push`].
    pub(crate) fn push(&mut self, s: &str) {
        self.0.push(s.bytes());
    }

    /// String `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> &str {
        // SAFETY: the bytes are UTF-8 and every offset a character boundary:
        // validated in `new`, pushed as whole `&str`s, or concatenated from
        // such arenas (`Runs::concat` asserts each continues the one before,
        // so no offset moves off its boundary).
        unsafe { std::str::from_utf8_unchecked(self.0.get(i)) }
    }

    /// The bytes and their offsets.
    pub(crate) fn runs(&self) -> &Runs<u8> {
        &self.0
    }

    /// Makes room for exactly `bytes` more bytes in `strings` more strings.
    pub(crate) fn reserve_exact(&mut self, bytes: usize, strings: usize) {
        self.0.reserve_exact(bytes, strings);
    }
}

#[cfg(test)]
mod tests {
    use super::Runs;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn a_run_past_u32_offsets_is_not_kept() {
        let mut runs = Runs::<u8>::empty_at(u32::MAX - 1);
        runs.push(b"a".iter().copied());
        assert!(catch_unwind(AssertUnwindSafe(|| runs.push(b"bc".iter().copied()))).is_err());
        assert_eq!((runs.items(), runs.offsets()), (&b"a"[..], &[u32::MAX - 1, u32::MAX][..]));
        let whole = Runs::concat([&runs].into_iter());
        assert_eq!((whole.len(), whole.get(0)), (1, &b"a"[..]));
    }
}
