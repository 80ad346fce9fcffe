//! Sparse paged memory.
//!
//! A flat 64-bit address space backed by 4 KiB pages allocated on demand,
//! with an explicit *mapped region* set: access to unmapped addresses
//! faults, which is how the simulated kernel's `mmap`/`munmap`/`brk`
//! manipulate the address space and how wild attacker writes can crash a
//! victim rather than silently succeeding.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Page size in bytes.
pub const PAGE_SIZE: u64 = 4096;

/// Multiply-shift hasher for page numbers. Page indices are
/// attacker-influenced only through `mmap` of a simulated process, so a
/// DoS-resistant hash buys nothing here and SipHash is pure overhead on
/// the interpreter's per-load/store page lookup.
#[derive(Default)]
pub(crate) struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // The high bits carry the entropy after the multiply; HashMap keys
        // buckets off the low bits.
        self.0.rotate_left(32)
    }
}

/// The bytes of one page.
type PageBytes = [u8; PAGE_SIZE as usize];

/// Page number → slot in [`Memory::slots`].
type PageIndex = HashMap<u64, u32, BuildHasherDefault<PageHasher>>;

/// Entries in the direct-mapped translation cache (a power of two).
const TLB_ENTRIES: usize = 16;

/// An empty translation-cache entry: no page number reaches `u64::MAX`
/// (page numbers are addresses divided by [`PAGE_SIZE`]).
const TLB_EMPTY: (u64, u32) = (u64::MAX, 0);

/// The backing store of one resident page. A page this `Memory` alone
/// writes is `Owned` and written through a plain `&mut`, with no atomic on
/// the store path. [`Memory::share`] turns owned pages into `Shared` ones
/// so a clone (a snapshot, or a fork child) holds them too, and the first
/// write to a shared page takes ownership back (copy-on-write). The `Arc`
/// wraps the page's `Box` rather than its bytes, so sharing a page, and
/// taking back one no one else holds, moves a pointer and never the 4 KiB.
#[derive(Debug, Clone)]
enum Page {
    Owned(Box<PageBytes>),
    /// Always [`PAGE_SIZE`] bytes; unsized only so that an unshared box
    /// can be taken out of its `Arc` without a placeholder allocation.
    Shared(Arc<Box<[u8]>>),
}

impl Page {
    #[inline]
    fn bytes(&self) -> &PageBytes {
        match self {
            Page::Owned(b) => b,
            Page::Shared(a) => (**a).as_ref().try_into().expect("page is PAGE_SIZE bytes"),
        }
    }

    /// The page's bytes for writing, taking ownership of a shared page
    /// first: its box when no one else holds it, otherwise a copy.
    #[inline]
    fn make_mut(&mut self) -> &mut PageBytes {
        if let Page::Shared(a) = self {
            let owned = match Arc::get_mut(a) {
                Some(unshared) => std::mem::take(unshared),
                None => Box::from(&a[..]),
            };
            *self = Page::Owned(owned.try_into().expect("page is PAGE_SIZE bytes"));
        }
        match self {
            Page::Owned(b) => b,
            Page::Shared(_) => unreachable!("page was just made owned"),
        }
    }

    fn into_shared(self) -> Page {
        match self {
            Page::Owned(b) => Page::Shared(Arc::new(b)),
            shared @ Page::Shared(_) => shared,
        }
    }

    /// Whether another `Memory` holds this page too.
    fn is_shared(&self) -> bool {
        matches!(self, Page::Shared(a) if Arc::strong_count(a) > 1)
    }
}

/// An access outside any mapped region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBounds {
    /// The faulting address.
    pub addr: u64,
    /// Whether the access was a write.
    pub write: bool,
}

impl fmt::Display for OutOfBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fault at {:#x}",
            if self.write { "write" } else { "read" },
            self.addr
        )
    }
}

impl std::error::Error for OutOfBounds {}

/// Minimal byte-addressed access interface shared by the VM (direct memory
/// access) and the monitor (remote access through the ptrace simulation),
/// so the shadow-table logic in [`crate::shadow`] is written once.
pub trait MemIo {
    /// Reads `buf.len()` bytes at `addr`.
    ///
    /// # Errors
    /// Fails if any byte is unmapped.
    fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), OutOfBounds>;

    /// Writes `buf` at `addr`.
    ///
    /// # Errors
    /// Fails if any byte is unmapped.
    fn write(&mut self, addr: u64, buf: &[u8]) -> Result<(), OutOfBounds>;

    /// Reads a little-endian u64.
    ///
    /// # Errors
    /// Fails if any byte is unmapped.
    #[inline]
    fn read_u64(&self, addr: u64) -> Result<u64, OutOfBounds> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian u64.
    ///
    /// # Errors
    /// Fails if any byte is unmapped.
    #[inline]
    fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), OutOfBounds> {
        self.write(addr, &v.to_le_bytes())
    }
}

/// The sparse paged address space of one process.
///
/// Resident pages live in a slot arena (`slots`) indexed by page number
/// (`index`), behind a small direct-mapped translation cache (`tlb`), so a
/// load or store that hits the cache costs no hash lookup. Slot indices
/// are stable: a page keeps its slot until [`Memory::prune_zero_pages`]
/// rebuilds the arena, and a clone keeps every slot (and cache entry) of
/// its source.
#[derive(Debug, Clone)]
pub struct Memory {
    /// Resident pages as `(page number, backing store)`.
    slots: Vec<(u64, Page)>,
    /// Page number → index into `slots`.
    index: PageIndex,
    /// Translation cache: entry `page % TLB_ENTRIES` holds the last
    /// `(page, slot)` looked up there, or [`TLB_EMPTY`].
    tlb: [Cell<(u64, u32)>; TLB_ENTRIES],
    /// Mapped regions: start → length (disjoint, coalesced on insert).
    regions: BTreeMap<u64, u64>,
    /// Last region hit by a mapping check, as `(start, end)`. Loop-local
    /// and sequential accesses land in the same region, so this skips the
    /// `BTreeMap` range query on the interpreter's load/store hot path.
    /// `(0, 0)` means empty; invalidated whenever the region set changes.
    cache: Cell<(u64, u64)>,
}

impl Default for Memory {
    fn default() -> Self {
        Memory {
            slots: Vec::new(),
            index: PageIndex::default(),
            tlb: std::array::from_fn(|_| Cell::new(TLB_EMPTY)),
            regions: BTreeMap::new(),
            cache: Cell::new((0, 0)),
        }
    }
}

impl Memory {
    /// Creates an empty, fully unmapped address space.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Maps `[start, start+len)`; overlapping and adjacent maps are
    /// coalesced into one region, so a re-map can never shrink an existing
    /// mapping and a nested map can never shadow its enclosing region from
    /// the `is_mapped` probe.
    pub fn map_region(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        let mut new_start = start;
        let mut new_end = start.saturating_add(len);
        // Absorb every region overlapping or touching [new_start, new_end).
        while let Some((&rs, &rl)) = self.regions.range(..=new_end).next_back() {
            let re = rs + rl;
            if re < new_start {
                break;
            }
            self.regions.remove(&rs);
            new_start = new_start.min(rs);
            new_end = new_end.max(re);
        }
        self.regions.insert(new_start, new_end - new_start);
        self.cache.set((0, 0));
    }

    /// Unmaps any region starting inside `[start, start+len)` and trims
    /// regions overlapping the range (page-coarse, like munmap).
    pub fn unmap_region(&mut self, start: u64, len: u64) {
        let end = start.saturating_add(len);
        let mut rebuilt = BTreeMap::new();
        for (&rs, &rl) in &self.regions {
            let re = rs + rl;
            if re <= start || rs >= end {
                rebuilt.insert(rs, rl);
                continue;
            }
            if rs < start {
                rebuilt.insert(rs, start - rs);
            }
            if re > end {
                rebuilt.insert(end, re - end);
            }
        }
        self.regions = rebuilt;
        self.cache.set((0, 0));
    }

    /// Whether every byte of `[addr, addr+len)` is mapped.
    #[inline]
    pub fn is_mapped(&self, addr: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let end = addr.saturating_add(len);
        let (cs, ce) = self.cache.get();
        if addr >= cs && end <= ce {
            return true;
        }
        let mut cur = addr;
        while cur < end {
            let Some((&rs, &rl)) = self.regions.range(..=cur).next_back() else {
                return false;
            };
            let re = rs + rl;
            if cur >= re {
                return false;
            }
            if cur == addr {
                self.cache.set((rs, re));
            }
            cur = re;
        }
        true
    }

    /// Length of the longest fully mapped prefix of `[addr, addr+len)`.
    /// Returns 0 if `addr` itself is unmapped. Backs partial remote reads
    /// (`process_vm_readv` may return fewer bytes than requested).
    pub fn mapped_prefix_len(&self, addr: u64, len: u64) -> u64 {
        let end = addr.saturating_add(len);
        let mut cur = addr;
        while cur < end {
            let Some((&rs, &rl)) = self.regions.range(..=cur).next_back() else {
                break;
            };
            let re = rs + rl;
            if cur >= re {
                break;
            }
            cur = re.min(end);
        }
        cur - addr
    }

    /// All mapped regions as `(start, len)` pairs.
    pub fn regions(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.regions.iter().map(|(&s, &l)| (s, l))
    }

    /// Total bytes of backing pages actually allocated.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_pages() * PAGE_SIZE
    }

    /// Number of backing pages currently in the page table.
    pub fn resident_pages(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Number of resident pages whose backing store is shared with at least
    /// one other `Memory` (a live snapshot or fork sibling) and would be
    /// copied on the next write.
    pub fn shared_pages(&self) -> u64 {
        self.slots.iter().filter(|(_, p)| p.is_shared()).count() as u64
    }

    /// Makes every owned page shareable, so that a following `clone` shares
    /// all pages copy-on-write instead of copying the owned ones. Moves
    /// pointers only; slots and the translation cache stay valid. Call it
    /// before cloning a `Memory` that should share its pages (a snapshot,
    /// a fork).
    pub fn share(&mut self) {
        self.slots = std::mem::take(&mut self.slots)
            .into_iter()
            .map(|(page, p)| (page, p.into_shared()))
            .collect();
    }

    /// Drops every all-zero backing page. Semantics-preserving: absent pages
    /// read as zeros (`read_unchecked`) and mapping checks consult the
    /// region set, never the page table. Called on snapshot so a checkpoint
    /// neither pins dead zero pages nor diverges in `resident_pages` from a
    /// world that never dirtied them. Rebuilds the slot arena (the only
    /// operation that does) and clears the translation cache. Returns the
    /// number of pages reclaimed.
    pub fn prune_zero_pages(&mut self) -> u64 {
        let before = self.slots.len();
        self.slots
            .retain(|(_, p)| p.bytes().iter().any(|&b| b != 0));
        self.index = self
            .slots
            .iter()
            .enumerate()
            .map(|(slot, &(page, _))| (page, slot as u32))
            .collect();
        for e in &self.tlb {
            e.set(TLB_EMPTY);
        }
        (before - self.slots.len()) as u64
    }

    /// The slot of a resident page: the translation cache first, then the
    /// page index (refilling the cache entry on a hit).
    #[inline]
    fn slot_of(&self, page: u64) -> Option<usize> {
        let entry = &self.tlb[page as usize % TLB_ENTRIES];
        let (cached, slot) = entry.get();
        if cached == page {
            return Some(slot as usize);
        }
        let slot = *self.index.get(&page)?;
        entry.set((page, slot));
        Some(slot as usize)
    }

    /// The bytes of `page`, or `None` if it was never written.
    #[inline]
    fn page(&self, page: u64) -> Option<&PageBytes> {
        self.slot_of(page).map(|s| self.slots[s].1.bytes())
    }

    /// The bytes of `page` for writing, allocating a zero page on first
    /// touch and taking ownership of a shared one.
    #[inline]
    fn page_mut(&mut self, page: u64) -> &mut PageBytes {
        let slot = match self.slot_of(page) {
            Some(s) => s,
            None => self.insert_page(page),
        };
        self.slots[slot].1.make_mut()
    }

    #[cold]
    fn insert_page(&mut self, page: u64) -> usize {
        let slot = self.slots.len();
        self.slots
            .push((page, Page::Owned(Box::new([0; PAGE_SIZE as usize]))));
        self.index.insert(page, slot as u32);
        self.tlb[page as usize % TLB_ENTRIES].set((page, slot as u32));
        slot
    }

    /// Raw read that ignores the region map (used by the attack framework's
    /// "arbitrary read" primitive and by fault-tolerant monitor probes).
    /// Copies page-sized chunks, one page-table lookup per page touched.
    pub fn read_unchecked(&self, addr: u64, buf: &mut [u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr.wrapping_add(done as u64);
            let (page, off) = (a / PAGE_SIZE, (a % PAGE_SIZE) as usize);
            let n = (buf.len() - done).min(PAGE_SIZE as usize - off);
            match self.page(page) {
                Some(p) => buf[done..done + n].copy_from_slice(&p[off..off + n]),
                None => buf[done..done + n].fill(0),
            }
            done += n;
        }
    }

    /// Checked in-place read: hands `[addr, addr+len)` to `f` one page-sized
    /// slice at a time, in address order, without an intermediate buffer
    /// (never-written pages read as zeros). The whole range is checked
    /// with [`Memory::is_mapped`] before `f` first runs, so a fault leaves
    /// the sink untouched.
    ///
    /// # Errors
    /// Fails, without calling `f`, if any byte is unmapped.
    pub fn read_chunks(
        &self,
        addr: u64,
        len: u64,
        mut f: impl FnMut(&[u8]),
    ) -> Result<(), OutOfBounds> {
        static ZERO_PAGE: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];
        if !self.is_mapped(addr, len) {
            return Err(OutOfBounds { addr, write: false });
        }
        let mut done = 0u64;
        while done < len {
            let a = addr.wrapping_add(done);
            let (page, off) = (a / PAGE_SIZE, (a % PAGE_SIZE) as usize);
            let n = (len - done).min(PAGE_SIZE - off as u64) as usize;
            let bytes = self.page(page).unwrap_or(&ZERO_PAGE);
            f(&bytes[off..off + n]);
            done += n as u64;
        }
        Ok(())
    }

    /// Raw write that ignores the region map (attacker primitive).
    /// Copies page-sized chunks, one page-table lookup per page touched.
    pub fn write_unchecked(&mut self, addr: u64, buf: &[u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr.wrapping_add(done as u64);
            let (page, off) = (a / PAGE_SIZE, (a % PAGE_SIZE) as usize);
            let n = (buf.len() - done).min(PAGE_SIZE as usize - off);
            self.page_mut(page)[off..off + n].copy_from_slice(&buf[done..done + n]);
            done += n;
        }
    }
}

impl MemIo for Memory {
    #[inline]
    fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), OutOfBounds> {
        if !self.is_mapped(addr, buf.len() as u64) {
            return Err(OutOfBounds { addr, write: false });
        }
        self.read_unchecked(addr, buf);
        Ok(())
    }

    #[inline]
    fn write(&mut self, addr: u64, buf: &[u8]) -> Result<(), OutOfBounds> {
        if !self.is_mapped(addr, buf.len() as u64) {
            return Err(OutOfBounds { addr, write: true });
        }
        self.write_unchecked(addr, buf);
        Ok(())
    }

    #[inline]
    fn read_u64(&self, addr: u64) -> Result<u64, OutOfBounds> {
        if !self.is_mapped(addr, 8) {
            return Err(OutOfBounds { addr, write: false });
        }
        let off = (addr % PAGE_SIZE) as usize;
        if off <= PAGE_SIZE as usize - 8 {
            // Within one page: a single lookup and an aligned-free copy.
            return Ok(match self.page(addr / PAGE_SIZE) {
                Some(p) => u64::from_le_bytes(p[off..off + 8].try_into().unwrap()),
                None => 0,
            });
        }
        let mut b = [0u8; 8];
        self.read_unchecked(addr, &mut b);
        Ok(u64::from_le_bytes(b))
    }

    #[inline]
    fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), OutOfBounds> {
        if !self.is_mapped(addr, 8) {
            return Err(OutOfBounds { addr, write: true });
        }
        let off = (addr % PAGE_SIZE) as usize;
        if off <= PAGE_SIZE as usize - 8 {
            self.page_mut(addr / PAGE_SIZE)[off..off + 8].copy_from_slice(&v.to_le_bytes());
            return Ok(());
        }
        self.write_unchecked(addr, &v.to_le_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_access_faults() {
        let mut m = Memory::new();
        let mut b = [0u8; 4];
        assert!(m.read(0x1000, &mut b).is_err());
        assert!(m.write(0x1000, &b).is_err());
        m.map_region(0x1000, 0x1000);
        assert!(m.read(0x1000, &mut b).is_ok());
        assert!(m.write(0x1000, &b).is_ok());
    }

    #[test]
    fn rw_roundtrip_across_page_boundary() {
        let mut m = Memory::new();
        m.map_region(0, 2 * PAGE_SIZE);
        let data: Vec<u8> = (0..=255).collect();
        let addr = PAGE_SIZE - 100;
        m.write(addr, &data).unwrap();
        let mut back = vec![0u8; 256];
        m.read(addr, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn read_chunks_matches_read_and_checks_first() {
        let mut m = Memory::new();
        m.map_region(0x1000, 3 * PAGE_SIZE);
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        m.write(0x1000 + 100, &data).unwrap();
        // Spans written pages and a never-written (zero) page.
        let (addr, len) = (0x1000 + 50, 2 * PAGE_SIZE + 200);
        let mut want = vec![0u8; len as usize];
        m.read(addr, &mut want).unwrap();
        let mut got = Vec::new();
        let mut calls = 0;
        m.read_chunks(addr, len, |c| {
            assert!(c.len() <= PAGE_SIZE as usize);
            got.extend_from_slice(c);
            calls += 1;
        })
        .unwrap();
        assert_eq!(got, want);
        assert_eq!(calls, 3);
        // A range running off the mapping faults before any chunk is seen.
        let mut touched = false;
        assert!(m
            .read_chunks(0x1000, 4 * PAGE_SIZE, |_| touched = true)
            .is_err());
        assert!(!touched);
        assert!(m.read_chunks(0x9000, 0, |_| touched = true).is_ok());
        assert!(!touched);
    }

    #[test]
    fn u64_helpers() {
        let mut m = Memory::new();
        m.map_region(0x2000, 0x100);
        m.write_u64(0x2008, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(m.read_u64(0x2008).unwrap(), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn spanning_two_regions_is_mapped() {
        let mut m = Memory::new();
        m.map_region(0x1000, 0x1000);
        m.map_region(0x2000, 0x1000);
        assert!(m.is_mapped(0x1800, 0x1000));
        assert!(!m.is_mapped(0x2800, 0x1000));
    }

    #[test]
    fn unmap_trims_and_splits() {
        let mut m = Memory::new();
        m.map_region(0x1000, 0x3000);
        m.unmap_region(0x2000, 0x1000);
        assert!(m.is_mapped(0x1000, 0x1000));
        assert!(!m.is_mapped(0x2000, 1));
        assert!(m.is_mapped(0x3000, 0x1000));
    }

    #[test]
    fn unchecked_access_never_faults() {
        let mut m = Memory::new();
        m.write_unchecked(0xdead_0000, b"hi");
        let mut b = [0u8; 2];
        m.read_unchecked(0xdead_0000, &mut b);
        assert_eq!(&b, b"hi");
        // And a read of never-written memory yields zeros.
        m.read_unchecked(0xffff_ffff_0000, &mut b);
        assert_eq!(&b, &[0, 0]);
    }

    #[test]
    fn mapped_prefix_len_stops_at_gaps() {
        let mut m = Memory::new();
        m.map_region(0x1000, 0x1000);
        m.map_region(0x2000, 0x1000); // contiguous with the first
        assert_eq!(m.mapped_prefix_len(0x1800, 0x100), 0x100);
        assert_eq!(m.mapped_prefix_len(0x2f00, 0x1000), 0x100);
        assert_eq!(m.mapped_prefix_len(0x4000, 64), 0);
        assert_eq!(m.mapped_prefix_len(0x1000, 0x4000), 0x2000);
    }

    #[test]
    fn zero_length_access_is_ok() {
        let m = Memory::new();
        assert!(m.is_mapped(0x1234, 0));
    }

    #[test]
    fn remap_inside_existing_region_does_not_shrink_it() {
        // Regression: `regions` is keyed by start, so a bare insert of
        // (0x1000, 0x1000) over (0x1000, 0x3000) used to shrink the map.
        let mut m = Memory::new();
        m.map_region(0x1000, 0x3000);
        m.map_region(0x1000, 0x1000);
        assert!(m.is_mapped(0x1000, 0x3000));
        assert!(m.is_mapped(0x3000, 0x1000));
    }

    #[test]
    fn nested_map_does_not_hide_enclosing_region() {
        // Regression: a later-start overlapping insert used to be the entry
        // `range(..=cur).next_back()` found, hiding the enclosing region.
        let mut m = Memory::new();
        m.map_region(0x1000, 0x3000);
        m.map_region(0x2000, 0x100);
        assert!(m.is_mapped(0x2800, 0x800));
        assert!(m.is_mapped(0x1000, 0x3000));
        assert!(!m.is_mapped(0x4000, 1));
    }

    #[test]
    fn bridging_map_coalesces_into_one_region() {
        let mut m = Memory::new();
        m.map_region(0x1000, 0x1000);
        m.map_region(0x3000, 0x1000);
        assert!(!m.is_mapped(0x2000, 0x100));
        m.map_region(0x1800, 0x2000); // bridges the gap, overlapping both
        assert!(m.is_mapped(0x1000, 0x3000));
        assert_eq!(m.regions().collect::<Vec<_>>(), vec![(0x1000, 0x3000)]);
    }

    #[test]
    fn cloned_memory_shares_pages_until_written() {
        let mut m = Memory::new();
        m.map_region(0x1000, 0x3000);
        m.write_u64(0x1000, 1).unwrap();
        m.write_u64(0x2000, 2).unwrap();
        m.share();
        let mut c = m.clone();
        assert_eq!(m.shared_pages(), 2);
        assert_eq!(c.shared_pages(), 2);
        // Writing through the clone copies only the touched page and never
        // disturbs the original.
        c.write_u64(0x1000, 99).unwrap();
        assert_eq!(m.read_u64(0x1000).unwrap(), 1);
        assert_eq!(c.read_u64(0x1000).unwrap(), 99);
        assert_eq!(m.shared_pages(), 1);
        assert_eq!(c.read_u64(0x2000).unwrap(), 2);
    }

    #[test]
    fn prune_zero_pages_reclaims_and_preserves_reads() {
        let mut m = Memory::new();
        m.map_region(0x1000, 0x3000);
        m.write_u64(0x1000, 7).unwrap();
        m.write_u64(0x2000, 7).unwrap();
        m.write_u64(0x2000, 0).unwrap(); // page dirtied, then zeroed
        m.write_u64(0x3000, 0).unwrap(); // page dirtied with zeros only
        assert_eq!(m.resident_pages(), 3);
        assert_eq!(m.prune_zero_pages(), 2);
        assert_eq!(m.resident_pages(), 1);
        assert_eq!(m.read_u64(0x1000).unwrap(), 7);
        assert_eq!(m.read_u64(0x2000).unwrap(), 0);
        assert_eq!(m.read_u64(0x3000).unwrap(), 0);
        assert!(m.is_mapped(0x2000, 8));
    }

    #[test]
    fn region_cache_is_invalidated_by_unmap() {
        let mut m = Memory::new();
        m.map_region(0x1000, 0x1000);
        assert!(m.is_mapped(0x1800, 8)); // populates the cache
        m.unmap_region(0x1000, 0x1000);
        assert!(!m.is_mapped(0x1800, 8));
        m.map_region(0x1000, 0x800);
        assert!(m.is_mapped(0x1000, 0x800));
        assert!(!m.is_mapped(0x1800, 8));
    }

    /// The naive reference model of one address space: every byte of a
    /// small address space, a per-byte mapped flag, and the set of pages
    /// some write has touched.
    #[derive(Clone)]
    struct Model {
        bytes: Vec<u8>,
        mapped: Vec<bool>,
        resident: std::collections::BTreeSet<u64>,
    }

    /// Bytes of address space the model covers.
    const SPACE: u64 = 6 * PAGE_SIZE;

    impl Model {
        fn new() -> Self {
            Model {
                bytes: vec![0; SPACE as usize],
                mapped: vec![false; SPACE as usize],
                resident: std::collections::BTreeSet::new(),
            }
        }

        fn span(addr: u64, len: u64) -> std::ops::Range<usize> {
            addr as usize..addr.saturating_add(len).min(SPACE) as usize
        }

        fn is_mapped(&self, addr: u64, len: u64) -> bool {
            self.mapped[Self::span(addr, len)].iter().all(|&m| m)
        }

        fn write(&mut self, addr: u64, data: &[u8]) {
            self.bytes[Self::span(addr, data.len() as u64)].copy_from_slice(data);
            if !data.is_empty() {
                let last = addr + data.len() as u64 - 1;
                self.resident.extend(addr / PAGE_SIZE..=last / PAGE_SIZE);
            }
        }

        fn prune(&mut self) -> u64 {
            let before = self.resident.len();
            let bytes = &self.bytes;
            self.resident.retain(|&p| {
                bytes[Self::span(p * PAGE_SIZE, PAGE_SIZE)]
                    .iter()
                    .any(|&b| b != 0)
            });
            (before - self.resident.len()) as u64
        }
    }

    proptest::proptest! {
        /// Random map/unmap/read/write/`read_u64`/`write_u64` sequences,
        /// interleaved with clones, `share`, write-after-clone and
        /// `prune_zero_pages`, against the naive byte-map model: every read
        /// and fault agrees, `resident_pages` agrees, and no instance's
        /// writes ever show through another (each instance's whole address
        /// space is compared with its own model at the end). Accesses are
        /// kept inside `SPACE` so the model stays a flat array.
        #[test]
        fn memory_matches_a_byte_map_model(
            ops in proptest::collection::vec((0u8..14, 0u64..SPACE - 8, 0u64..5000), 1..160)
        ) {
            let mut inst = vec![(Memory::new(), Model::new())];
            let mut cur = 0usize;
            let mut fill = 0u8;
            for (op, addr, n) in ops {
                let (m, model) = &mut inst[cur];
                let len = n.min(SPACE - addr);
                let short = (n % 300).min(SPACE - addr) as usize;
                match op {
                    0 | 1 => {
                        m.map_region(addr, len);
                        model.mapped[Model::span(addr, len)].fill(true);
                    }
                    2 => {
                        m.unmap_region(addr, len);
                        model.mapped[Model::span(addr, len)].fill(false);
                    }
                    3 => {
                        let mut buf = vec![0u8; short];
                        let ok = model.is_mapped(addr, short as u64);
                        proptest::prop_assert_eq!(m.read(addr, &mut buf).is_ok(), ok);
                        if ok {
                            proptest::prop_assert_eq!(&buf[..], &model.bytes[Model::span(addr, short as u64)]);
                        }
                    }
                    4 | 5 => {
                        let data: Vec<u8> = (0..short).map(|_| { fill = fill.wrapping_add(1); fill }).collect();
                        let ok = model.is_mapped(addr, short as u64);
                        let res = m.write(addr, &data);
                        proptest::prop_assert_eq!(res.is_ok(), ok);
                        if let Err(e) = res {
                            proptest::prop_assert_eq!(e, OutOfBounds { addr, write: true });
                        } else {
                            model.write(addr, &data);
                        }
                    }
                    6 => {
                        let ok = model.is_mapped(addr, 8);
                        let got = m.read_u64(addr);
                        proptest::prop_assert_eq!(got.is_ok(), ok);
                        if let Ok(v) = got {
                            let span = Model::span(addr, 8);
                            proptest::prop_assert_eq!(v.to_le_bytes()[..], model.bytes[span]);
                        }
                    }
                    7 | 8 => {
                        // Zeros at times, so pruning has pages to reclaim.
                        let v = if n % 4 == 0 { 0 } else { n.wrapping_mul(0x9E37_79B9_7F4A_7C15) };
                        let ok = model.is_mapped(addr, 8);
                        proptest::prop_assert_eq!(m.write_u64(addr, v).is_ok(), ok);
                        if ok {
                            model.write(addr, &v.to_le_bytes());
                        }
                    }
                    9 => {
                        let data = [fill; 3];
                        m.write_unchecked(addr, &data);
                        model.write(addr, &data);
                    }
                    10 => {
                        let (mc, modelc) = (m.clone(), model.clone());
                        if inst.len() < 4 { inst.push((mc, modelc)); } else { inst[(n % 4) as usize] = (mc, modelc); }
                    }
                    11 => {
                        m.share();
                        proptest::prop_assert!(m.shared_pages() <= m.resident_pages());
                        let c = (m.clone(), model.clone());
                        proptest::prop_assert_eq!(m.shared_pages(), m.resident_pages());
                        proptest::prop_assert_eq!(c.0.shared_pages(), c.0.resident_pages());
                        if inst.len() < 4 { inst.push(c); } else { inst[(n % 4) as usize] = c; }
                    }
                    12 => {
                        let reclaimed = m.prune_zero_pages();
                        proptest::prop_assert_eq!(reclaimed, model.prune());
                    }
                    _ => cur = (n as usize) % inst.len(),
                }
                let (m, model) = &inst[cur];
                proptest::prop_assert_eq!(m.resident_pages(), model.resident.len() as u64);
                proptest::prop_assert_eq!(m.is_mapped(addr, len), model.is_mapped(addr, len));
                proptest::prop_assert!(m.shared_pages() <= m.resident_pages());
            }
            for (m, model) in &inst {
                let mut all = vec![0u8; SPACE as usize];
                m.read_unchecked(0, &mut all);
                proptest::prop_assert!(all == model.bytes, "an instance's bytes diverged from its model");
                proptest::prop_assert_eq!(m.resident_pages(), model.resident.len() as u64);
            }
        }
    }
}
