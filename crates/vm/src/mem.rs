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

/// Pages are reference-counted so that a cloned `Memory` (a snapshot, or a
/// fork child) shares every page with its source; `page_mut` breaks the
/// sharing one page at a time on first write (copy-on-write).
type PageMap = HashMap<u64, Arc<[u8; PAGE_SIZE as usize]>, BuildHasherDefault<PageHasher>>;

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
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: PageMap,
    /// Mapped regions: start → length (disjoint, coalesced on insert).
    regions: BTreeMap<u64, u64>,
    /// Last region hit by a mapping check, as `(start, end)`. Loop-local
    /// and sequential accesses land in the same region, so this skips the
    /// `BTreeMap` range query on the interpreter's load/store hot path.
    /// `(0, 0)` means empty; invalidated whenever the region set changes.
    cache: Cell<(u64, u64)>,
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
        self.pages.len() as u64 * PAGE_SIZE
    }

    /// Number of backing pages currently in the page table.
    pub fn resident_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Number of resident pages whose backing store is shared with at least
    /// one other `Memory` (a live snapshot or fork sibling) and would be
    /// copied on the next write.
    pub fn shared_pages(&self) -> u64 {
        self.pages
            .values()
            .filter(|p| Arc::strong_count(p) > 1)
            .count() as u64
    }

    /// Drops every all-zero backing page. Semantics-preserving: absent pages
    /// read as zeros (`read_unchecked`) and mapping checks consult the
    /// region set, never the page table. Called on snapshot so a checkpoint
    /// neither pins dead zero pages nor diverges in `resident_pages` from a
    /// world that never dirtied them. Returns the number of pages reclaimed.
    pub fn prune_zero_pages(&mut self) -> u64 {
        let before = self.pages.len();
        self.pages.retain(|_, p| p.iter().any(|&b| b != 0));
        (before - self.pages.len()) as u64
    }

    fn page_mut(&mut self, page: u64) -> &mut [u8; PAGE_SIZE as usize] {
        Arc::make_mut(
            self.pages
                .entry(page)
                .or_insert_with(|| Arc::new([0u8; PAGE_SIZE as usize])),
        )
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
            match self.pages.get(&page) {
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
            let bytes = self.pages.get(&page).map_or(&ZERO_PAGE, |p| &**p);
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
            return Ok(match self.pages.get(&(addr / PAGE_SIZE)) {
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
}
