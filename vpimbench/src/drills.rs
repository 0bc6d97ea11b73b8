//! Layer drills: fixed series of public calls at one layer depth, run in
//! the workload's own guest after the measured phase, in the traced run
//! only. Every drill cleans up after itself: written MRAM is read back and
//! verified, allocated guest pages are freed, heaps are dropped. Drills
//! write at the bottom of MRAM, which the workload's ops already used: a
//! simulated bank grows to its highest written offset, so writing near the
//! top would inflate the process's memory.

use std::sync::Arc;
use std::time::Instant;

use pim_virtio::memory::PAGE_SIZE;
use pim_virtio::{Gpa, GuestMemory};
use simkit::cost::DataPath;
use vpim::backend::datapath::transform_fused;
use vpim::frontend::Frontend;
use vpim::{Pheap, PheapOptions, VpimSystem};

use crate::common::mix;
use crate::stats::Samples;
use crate::trace::Tracer;

/// Bytes moved by one small frontend drill call (one 160 B transfer).
pub const SMALL_XFER: usize = 160;
/// Iterations of the per-call drills.
const ITERS: usize = 64;

fn pattern(seed: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (mix(seed, i as u64) >> 24) as u8)
        .collect()
}

/// Wall time of `Frontend::write_rank` (plus the batch flush that sends
/// it) and of `Frontend::read_rank` for one 160 B transfer to DPU 0, in
/// µs. Each read checks the bytes just written.
pub fn frontend(tr: &Tracer, f: &Frontend) -> Result<(Samples, Samples), String> {
    let off = 0;
    let (mut w, mut r) = (Samples::new(), Samples::new());
    for i in 0..ITERS {
        let data = pattern(i as u64, SMALL_XFER);
        let t = Instant::now();
        tr.span("drill.write_rank", || {
            f.write_rank(&[(0, off, &data)])?;
            f.flush_batch()
        })
        .map_err(|e| format!("write_rank drill: {e}"))?;
        w.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let (got, _) = tr
            .span("drill.read_rank", || {
                f.read_rank(&[(0, off, SMALL_XFER as u64)])
            })
            .map_err(|e| format!("read_rank drill: {e}"))?;
        r.push(t.elapsed().as_secs_f64() * 1e6);
        if got.first() != Some(&data) {
            return Err("read_rank drill read back other bytes than written".into());
        }
    }
    Ok((w, r))
}

/// DDR-bus virtual time of one 64 KiB-per-DPU rank write over every DPU
/// of `f`, in ms, read back and verified.
pub fn ddr(tr: &Tracer, f: &Frontend) -> Result<f64, String> {
    const LEN: usize = 64 << 10;
    let off = 0;
    let bufs: Vec<Vec<u8>> = (0..f.nr_dpus())
        .map(|d| pattern(u64::from(d) + 1000, LEN))
        .collect();
    let entries: Vec<(u32, u64, &[u8])> = bufs
        .iter()
        .enumerate()
        .map(|(d, b)| (d as u32, off, b.as_slice()))
        .collect();
    let report = tr
        .span("drill.bulk_write", || f.write_rank(&entries))
        .map_err(|e| format!("bulk write drill: {e}"))?;
    let reqs: Vec<(u32, u64, u64)> = (0..f.nr_dpus()).map(|d| (d, off, LEN as u64)).collect();
    let (got, _) = tr
        .span("drill.bulk_read", || f.read_rank(&reqs))
        .map_err(|e| format!("bulk read drill: {e}"))?;
    if got != bufs {
        return Err("bulk drill read back other bytes than written".into());
    }
    Ok(report.ddr().as_millis_f64())
}

/// Wall time of `GuestMemory::alloc_contiguous` for the pages of one
/// small transfer (request header + data), in µs; the pages are freed
/// after every call.
pub fn mem_alloc(tr: &Tracer, mem: &GuestMemory) -> Result<Samples, String> {
    const PAGES: usize = 2;
    let mut s = Samples::new();
    for _ in 0..ITERS {
        let t = Instant::now();
        let base = tr
            .span("drill.alloc_contiguous", || mem.alloc_contiguous(PAGES))
            .map_err(|e| format!("alloc_contiguous drill: {e}"))?;
        s.push(t.elapsed().as_secs_f64() * 1e6);
        let pages: Vec<Gpa> = (0..PAGES as u64)
            .map(|i| Gpa(base.0 + i * PAGE_SIZE))
            .collect();
        mem.free_pages_back(&pages)
            .map_err(|e| format!("freeing drill pages: {e}"))?;
    }
    Ok(s)
}

/// Throughput of the backend's fused interleave round trip on a 1 MiB
/// buffer, MiB/s; the round trip must give back the input.
pub fn transform(tr: &Tracer) -> Result<Samples, String> {
    const LEN: usize = 1 << 20;
    let orig = pattern(7, LEN);
    let mut buf = orig.clone();
    let mut s = Samples::new();
    for _ in 0..16 {
        let t = Instant::now();
        tr.span("drill.transform_fused", || {
            transform_fused(&mut buf, DataPath::Vectorized)
        });
        s.push(1.0 / t.elapsed().as_secs_f64());
    }
    if buf != orig {
        return Err("transform_fused round trip changed the data".into());
    }
    Ok(s)
}

/// Persist and recovery costs of a small persistent heap on `front`:
/// per-persist virtual µs and wall µs, and the recovery's virtual µs.
/// Every value is verified after recovery; the heap is dropped after.
pub fn pheap(
    tr: &Tracer,
    sys: &VpimSystem,
    front: &Arc<Frontend>,
) -> Result<(Samples, Samples, f64), String> {
    const ENTRIES: usize = 16;
    const LEN: usize = 512;
    let err = |e: vpim::VpimError| format!("pheap drill: {e}");
    let opts = PheapOptions::new().attach(sys);
    let mut heap = tr
        .span("drill.pheap_format", || {
            Pheap::format(front.clone(), opts.clone())
        })
        .map_err(err)?;
    heap.drain_cost();
    let (mut vt, mut wall) = (Samples::new(), Samples::new());
    let mut ids = Vec::with_capacity(ENTRIES);
    for i in 0..ENTRIES {
        let id = heap.alloc(LEN as u64).map_err(err)?;
        heap.write(id, 0, &pattern(i as u64 + 77, LEN))
            .map_err(err)?;
        ids.push(id);
        heap.drain_cost();
        let t = Instant::now();
        tr.span("drill.pheap_persist", || heap.persist())
            .map_err(err)?;
        wall.push(t.elapsed().as_secs_f64() * 1e6);
        vt.push(heap.drain_cost().as_nanos() as f64 / 1e3);
    }
    drop(heap);
    let (mut rec, _) = tr
        .span("drill.pheap_recover", || {
            Pheap::recover(front.clone(), opts)
        })
        .map_err(err)?;
    let recover_vt_us = rec.drain_cost().as_nanos() as f64 / 1e3;
    for (i, &id) in ids.iter().enumerate() {
        if rec.read(id, 0, LEN as u64).map_err(err)? != pattern(i as u64 + 77, LEN) {
            return Err(format!("pheap drill: recovered object {i} differs"));
        }
    }
    Ok((vt, wall, recover_vt_us))
}
