// Golden-data unit tests (src/fi/fastpath.*, src/runtime/snapshot.*):
// snapshot round-trips, snapshot-resumed determinism on both targets
// (including armed monitors and mid-run injections), and the golden-cache
// hit/miss/eviction behaviour. Lane fork/skip/prune mechanics are in
// batch_test; the campaign-scale engine-vs-replay equivalence proofs live
// in fastpath_equivalence_test.
#include <gtest/gtest.h>

#include <memory>

#include "alt/tank_system.hpp"
#include "exp/arrestment_experiments.hpp"
#include "fi/fastpath.hpp"
#include "fi/golden.hpp"
#include "fi/injector.hpp"
#include "runtime/snapshot.hpp"
#include "target/arrestment_system.hpp"

namespace {

using namespace epea;

TEST(StateWriter, RoundTripsEveryFieldType) {
    std::vector<std::uint64_t> buf;
    runtime::StateWriter w(buf);
    w.u32(0xdeadbeefU);
    w.u64(0x0123456789abcdefULL);
    w.i64(-42);
    w.f64(3.141592653589793);
    w.boolean(true);
    w.boolean(false);
    w.tick(runtime::kInvalidTick);
    w.tick(1234);

    runtime::StateReader r(buf);
    EXPECT_EQ(r.u32(), 0xdeadbeefU);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_DOUBLE_EQ(r.f64(), 3.141592653589793);
    EXPECT_TRUE(r.boolean());
    EXPECT_FALSE(r.boolean());
    EXPECT_EQ(r.tick(), runtime::kInvalidTick);
    EXPECT_EQ(r.tick(), 1234);
    EXPECT_TRUE(r.exhausted());
    EXPECT_THROW((void)r.u32(), std::runtime_error);  // underrun
}

TEST(Snapshot, HashAndEqualityTrackState) {
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[0]);
    sys.sim().reset();
    runtime::Snapshot a;
    sys.sim().capture_snapshot(a);
    sys.sim().step_tick();
    runtime::Snapshot b;
    sys.sim().capture_snapshot(b);

    EXPECT_FALSE(a.same_state(b));
    EXPECT_NE(a.state_hash(), b.state_hash());

    // Identical state, different tick: same_state ignores the tick (the
    // prune comparison aligns ticks explicitly).
    runtime::Snapshot c = a;
    c.tick = 999;
    EXPECT_TRUE(a.same_state(c));
    EXPECT_EQ(a.state_hash(), c.state_hash());
    EXPECT_GT(a.approx_bytes(), 0U);
}

/// Restoring a mid-run boundary snapshot and stepping to the end must
/// pass through every later stored boundary and land bit-exactly on the
/// uninterrupted run's end state.
template <typename System>
void expect_snapshot_resume_deterministic(System& sys, runtime::Tick max_ticks) {
    ASSERT_TRUE(sys.sim().snapshot_supported());
    const fi::GoldenCaseData golden =
        fi::capture_golden_data(sys.sim(), max_ticks, /*with_snapshots=*/true);
    const runtime::Tick len = golden.run.length;
    ASSERT_GT(len, 10 * fi::kPruneCheckPeriod);
    ASSERT_EQ(golden.boundary.size(),
              static_cast<std::size_t>(len / fi::kPruneCheckPeriod) + 1);

    const std::size_t mid = golden.boundary.size() / 2;
    sys.sim().restore_snapshot(golden.boundary[mid]);
    EXPECT_EQ(sys.sim().now(), mid * fi::kPruneCheckPeriod);
    while (sys.sim().now() < max_ticks) {
        sys.sim().step_tick();
        // Every stored boundary passed through must match the recorded one.
        const runtime::Tick k = sys.sim().now();
        if (k % fi::kPruneCheckPeriod == 0) {
            const runtime::Snapshot& stored = golden.boundary[k / fi::kPruneCheckPeriod];
            runtime::Snapshot snap;
            sys.sim().capture_snapshot(snap);
            ASSERT_TRUE(snap.same_state(stored)) << "diverged at tick " << k;
            ASSERT_EQ(snap.state_hash(), stored.state_hash());
        }
        if (sys.sim().environment().finished()) break;
    }
    EXPECT_EQ(sys.sim().now(), len);
    runtime::Snapshot end;
    sys.sim().capture_snapshot(end);
    EXPECT_TRUE(end.same_state(golden.last));
}

TEST(SnapshotResume, DeterministicOnArrestment) {
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[3]);
    expect_snapshot_resume_deterministic(sys, target::kMaxRunTicks);
}

TEST(SnapshotResume, DeterministicOnTank) {
    alt::TankSystem sys;
    sys.configure(alt::standard_tank_scenarios()[4]);
    expect_snapshot_resume_deterministic(sys, 20000);
}

TEST(SnapshotResume, DeterministicWithArmedEasAndInjection) {
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[1]);
    fi::Injector injector(sys.sim());

    // Calibrate and arm the full EA bank: monitor state is now part of
    // the snapshot sections.
    const fi::GoldenRun gr = fi::capture_golden_run(sys.sim(), target::kMaxRunTicks);
    ea::EaBank bank = exp::make_calibrated_bank(sys.system(), {gr.trace});
    bank.arm(sys.sim());

    const runtime::Tick snap_at = gr.length / 3;
    const runtime::Tick inject_at = gr.length / 2;  // after the snapshot
    const model::SignalId sid = sys.system().signal_id("TIC1");
    const std::vector<fi::Injection> plan{fi::Injection::into_signal(sid, 9, inject_at)};

    // Uninterrupted reference run.
    injector.arm(plan, /*seed=*/7);
    sys.sim().reset();
    const runtime::RunResult ref = sys.sim().run(target::kMaxRunTicks);
    runtime::Snapshot ref_end;
    sys.sim().capture_snapshot(ref_end);
    const std::vector<std::size_t> ref_triggered = bank.triggered();

    // Same run, but snapshotted before the injection and resumed after a
    // scrambling detour.
    injector.arm(plan, 7);
    sys.sim().reset();
    (void)sys.sim().run(snap_at);
    runtime::Snapshot mid;
    sys.sim().capture_snapshot(mid);
    sys.sim().reset();
    (void)sys.sim().run(target::kMaxRunTicks);  // scramble the live state
    injector.arm(plan, 7);                      // restore injector state too
    sys.sim().restore_snapshot(mid);
    const runtime::RunResult resumed = sys.sim().run(target::kMaxRunTicks);

    EXPECT_EQ(resumed.ticks, ref.ticks);
    EXPECT_EQ(resumed.env_finished, ref.env_finished);
    EXPECT_EQ(injector.fired_count(), 1U);
    runtime::Snapshot end;
    sys.sim().capture_snapshot(end);
    EXPECT_TRUE(end.same_state(ref_end));
    EXPECT_EQ(bank.triggered(), ref_triggered);
    sys.sim().clear_monitors();
}

// ------------------------------------------------------------ cache

fi::GoldenCaseData tiny_golden(runtime::Tick length) {
    fi::GoldenCaseData data;
    data.run.length = length;
    data.max_ticks = length;
    data.boundary.emplace_back().memory.assign(32, 0);  // some payload bytes
    return data;
}

TEST(GoldenCache, CountsHitsAndMisses) {
    fi::GoldenCache cache;
    fi::FastPathStats stats;
    std::size_t captures = 0;
    const auto factory = [&captures] {
        ++captures;
        return tiny_golden(10);
    };
    const auto a = cache.get_or_capture(fi::golden_key("trace", 0), factory, &stats);
    const auto b = cache.get_or_capture(fi::golden_key("trace", 0), factory, &stats);
    const auto c = cache.get_or_capture(fi::golden_key("perm", 0), factory, &stats);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());  // same case, different capture context
    EXPECT_EQ(captures, 2U);
    EXPECT_EQ(stats.cache_hits, 1U);
    EXPECT_EQ(stats.cache_misses, 2U);
    EXPECT_EQ(cache.entry_count(), 2U);
}

TEST(GoldenFor, WithoutACacheHandsOutTheOnlyReference) {
    fi::FastPathStats stats;
    std::size_t captures = 0;
    const auto factory = [&captures] {
        ++captures;
        return tiny_golden(10);
    };
    auto a = fi::golden_for(nullptr, fi::golden_key("perm", 0), factory, &stats);
    const auto b = fi::golden_for(nullptr, fi::golden_key("perm", 0), factory, &stats);
    EXPECT_NE(a.get(), b.get());  // nothing kept between lookups
    EXPECT_EQ(a.use_count(), 1);
    const std::weak_ptr<const fi::GoldenCaseData> watch = a;
    a.reset();
    EXPECT_TRUE(watch.expired());  // freed with the case's reference
    EXPECT_EQ(captures, 2U);
    EXPECT_EQ(stats.cache_hits, 0U);
    EXPECT_EQ(stats.cache_misses, 2U);

    // With a cache it delegates to get_or_capture.
    fi::GoldenCache cache;
    const auto c = fi::golden_for(&cache, fi::golden_key("perm", 0), factory, &stats);
    const auto d = fi::golden_for(&cache, fi::golden_key("perm", 0), factory, &stats);
    EXPECT_EQ(c.get(), d.get());
    EXPECT_EQ(captures, 3U);
    EXPECT_EQ(stats.cache_hits, 1U);
    EXPECT_EQ(stats.cache_misses, 3U);
}

TEST(GoldenCache, EvictsLruButNeverLiveEntries) {
    // Budget below two entries: inserting the second must evict the
    // least-recently-used one — unless a live shared_ptr pins it.
    const std::size_t entry_bytes = tiny_golden(10).approx_bytes();
    fi::GoldenCache cache(entry_bytes + entry_bytes / 2);

    auto pinned = cache.get_or_capture("a", [] { return tiny_golden(10); });
    (void)cache.get_or_capture("b", [] { return tiny_golden(10); });
    // "a" is pinned by `pinned`, so "b" (the only evictable entry) went.
    EXPECT_EQ(cache.entry_count(), 1U);
    std::size_t recaptured = 0;
    (void)cache.get_or_capture("a", [&] {
        ++recaptured;
        return tiny_golden(10);
    });
    EXPECT_EQ(recaptured, 0U);

    pinned.reset();
    (void)cache.get_or_capture("c", [] { return tiny_golden(10); });
    // With "a" unpinned, inserting "c" evicts it.
    EXPECT_EQ(cache.entry_count(), 1U);
    (void)cache.get_or_capture("a", [&] {
        ++recaptured;
        return tiny_golden(10);
    });
    EXPECT_EQ(recaptured, 1U);

    cache.clear();
    EXPECT_EQ(cache.entry_count(), 0U);
    EXPECT_EQ(cache.byte_count(), 0U);
}

TEST(GoldenCache, BudgetBelowSingleEntryDeclinesToKeep) {
    // A budget too small for even one entry must not wedge the cache:
    // every caller still receives usable data, the cache just keeps
    // nothing (and every lookup is a recapturing miss).
    const std::size_t entry_bytes = tiny_golden(10).approx_bytes();
    fi::GoldenCache cache(entry_bytes / 2);
    fi::FastPathStats stats;
    std::size_t captures = 0;
    const auto factory = [&captures] {
        ++captures;
        return tiny_golden(10);
    };
    const auto a = cache.get_or_capture("a", factory, &stats);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->run.length, 10U);
    EXPECT_EQ(cache.entry_count(), 0U);
    EXPECT_EQ(cache.byte_count(), 0U);
    const auto b = cache.get_or_capture("a", factory, &stats);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(captures, 2U);
    EXPECT_EQ(stats.cache_hits, 0U);
    EXPECT_EQ(stats.cache_misses, 2U);
}

TEST(GoldenCache, AllEntriesPinnedDeclinesInsertButServesData) {
    // Budget for exactly one entry, and that entry pinned by a live
    // shared_ptr: an over-budget insert must decline to keep the new
    // entry (never evict live data) while still returning it.
    const std::size_t entry_bytes = tiny_golden(10).approx_bytes();
    fi::GoldenCache cache(entry_bytes);
    auto pinned = cache.get_or_capture("a", [] { return tiny_golden(10); });
    EXPECT_EQ(cache.entry_count(), 1U);

    const auto b = cache.get_or_capture("b", [] { return tiny_golden(10); });
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->max_ticks, 10U);
    EXPECT_EQ(cache.entry_count(), 1U);
    EXPECT_EQ(cache.byte_count(), entry_bytes);

    // The pinned entry is still served from cache; the declined one is
    // recaptured on its next lookup.
    std::size_t recaptured = 0;
    (void)cache.get_or_capture("a", [&] {
        ++recaptured;
        return tiny_golden(10);
    });
    EXPECT_EQ(recaptured, 0U);
    (void)cache.get_or_capture("b", [&] {
        ++recaptured;
        return tiny_golden(10);
    });
    EXPECT_EQ(recaptured, 1U);
}

}  // namespace
