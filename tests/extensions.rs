//! Tests of the §4 "wish list" extensions the paper's authors asked KSR
//! for: selective sub-cache bypass and local-cache → sub-cache prefetch.
//! These exist in the simulator precisely so the wish can be evaluated
//! (see the EXT experiment).

use ksr1_repro::machine::{program, Machine};

/// Streaming through a large array evicts a small hot set from the 2-way
/// sub-cache; marking the stream uncached protects the hot set.
#[test]
fn uncached_stream_protects_hot_set() {
    let run = |uncached: bool| {
        let mut m = Machine::ksr1(3).unwrap();
        // Hot set: 2 KB (one sub-cache block). Stream: 1 MB.
        let hot = m.alloc(2048, 2048).unwrap();
        let stream = m.alloc(1 << 20, 16384).unwrap();
        m.warm(0, hot, 2048);
        m.warm(0, stream, 1 << 20);
        if uncached {
            m.set_uncached(stream, 1 << 20);
        }
        let r = m
            .run(vec![program(move |mut cpu| async move {
                // Warm the hot set into the sub-cache.
                for w in 0..256u64 {
                    let _ = cpu.read_u64(hot + w * 8).await;
                }
                for i in 0..4_096u64 {
                    // One streaming access...
                    let _ = cpu.read_u64(stream + (i * 256) % (1 << 20)).await;
                    // ... then four hot accesses that want to stay at 2 cycles.
                    for w in 0..4u64 {
                        let _ = cpu.read_u64(hot + ((i * 32 + w * 8) % 2048)).await;
                    }
                }
            })])
            .expect("run");
        r.duration_cycles()
    };
    let cached = run(false);
    let uncached = run(true);
    assert!(
        uncached < cached,
        "bypassing the sub-cache for the stream must protect the hot set: \
         {cached} vs {uncached} cycles"
    );
}

/// The sub-cache prefetch turns the first touch of locally resident data
/// from an 18-cycle local-cache access into a 2-cycle sub-cache hit.
#[test]
fn subcache_prefetch_hides_the_18_cycles() {
    let mut m = Machine::ksr1(4).unwrap();
    let a = m.alloc(4096, 4096).unwrap();
    m.warm(0, a, 4096);
    let r = m
        .run(vec![program(move |mut cpu| async move {
            // Prefetch the first sub-page into the sub-cache, give it a beat,
            // then read: a sub-cache hit.
            cpu.prefetch_subcache(a).await;
            cpu.compute(50);
            let t0 = cpu.now();
            let _ = cpu.read_u64(a).await;
            let prefetched = cpu.now() - t0;
            assert_eq!(prefetched, 2, "prefetched read must be a sub-cache hit");
            // An unprefetched sub-page costs the local-cache latency.
            let t0 = cpu.now();
            let _ = cpu.read_u64(a + 2048).await;
            let cold = cpu.now() - t0;
            assert!(cold >= 18, "unprefetched read pays the local cache: {cold}");
        })])
        .expect("run");
    assert!(r.duration_cycles() > 0);
}

/// Sub-cache prefetch of remote (non-resident) data is a quiet no-op —
/// the instruction only moves data between the two local levels.
#[test]
fn subcache_prefetch_of_remote_data_is_noop() {
    let mut m = Machine::ksr1(5).unwrap();
    let a = m.alloc(256, 128).unwrap();
    m.warm(1, a, 256); // lives on another cell
    m.run(vec![program(move |mut cpu| async move {
        cpu.prefetch_subcache(a).await;
        cpu.compute(50);
        let t0 = cpu.now();
        let _ = cpu.read_u64(a).await;
        let latency = cpu.now() - t0;
        assert!(
            latency > 100,
            "the read must still go out on the ring: {latency}"
        );
    })])
    .expect("run");
}

/// Uncached ranges still get correct values and coherence.
#[test]
fn uncached_range_is_functionally_transparent() {
    let mut m = Machine::ksr1(6).unwrap();
    let a = m.alloc_subpage(64).unwrap();
    m.set_uncached(a, 64);
    m.run(vec![
        program(move |mut cpu| async move {
            cpu.write_u64(a, 11).await;
            cpu.write_u64(a + 8, 22).await;
        }),
        program(move |mut cpu| async move {
            cpu.spin_until_eq(a + 8, 22).await;
            let v = cpu.read_u64(a).await;
            assert_eq!(v, 11, "uncached data must stay coherent");
        }),
    ])
    .expect("run");
    assert_eq!(m.peek_u64(a).unwrap(), 11);
}
