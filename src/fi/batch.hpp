// The injection engine (DESIGN.md §9): the scheduler side of the
// structure-of-arrays batch kernel, and the only executor of injection
// plans.
//
// BatchRunner collects injection plans that share a golden run and
// advances them as width-W lockstep batches of lanes, one tick of all
// live lanes per inner-loop pass, through a runtime::BatchBackend (the
// target's fused SoA kernel, or the target-agnostic ScalarLaneBackend
// when none is installed). Retired lanes are compacted out of the hot
// loop.
//
//  - One-shot plans are grouped by injection tick. A lane forks from the
//    golden boundary at the stride floor of its injection tick,
//    floor(at/kPruneCheckPeriod)*kPruneCheckPeriod — the prefix up to
//    `at` is fault-free, so it replays the golden run — and launches its
//    flip at `at` through the per-lane schedule periodic lanes use: a
//    one-shot plan is a schedule that fires once. Once launched, it
//    retires on convergence-prune (full state equality with the golden
//    boundary), on environment finish, on the tick budget, and — in
//    permeability mode — at the golden end, where the outcome can no
//    longer change, or earlier when the consumer's attribution seal rule
//    is decided (see SealRule).
//  - Periodic plans (the severe model; coverage mode only) fork from the
//    reset state, boundary[0], and launch their flip at every tick of
//    their schedule, drawing kRandomBit bits from a per-lane Rng seeded
//    like the replay's injector. A lane perturbed again every period
//    cannot prune, so it runs to environment finish or the tick budget.
//
// Reference path: when the golden data carries no boundary snapshots
// (callers capture it that way to request the reference, `--no-batch`)
// or the target cannot snapshot at all, flush() replays every queued plan
// from tick 0 (fi::replay) into the same outcomes. Consumers therefore
// keep a single submit/flush/tally loop.
//
// Bit-identity contract: consumed in submission order, the lane outcomes
// reproduce exactly what replay produces — fired flags, per-signal first
// value-differences over the common trace prefix (permeability), and
// monitor/EA detection state plus the environment state at run end
// (coverage).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fi/fastpath.hpp"
#include "fi/injection.hpp"
#include "runtime/batch.hpp"
#include "runtime/simulator.hpp"
#include "util/rng.hpp"

namespace epea::fi {

/// Outcome of one injection run, mirroring what replay exposes through
/// the injector, the trace and the monitor state.
struct BatchOutcome {
    bool fired = false;          ///< the flip executed (injection tick < golden end)
    /// RunResult::ticks equivalent — exact when `finished` or at the tick
    /// budget. A permeability lane retired at the golden end while its
    /// environment was still running reports the golden length; a replay
    /// would have run on past it.
    runtime::Tick end_tick = 0;
    bool finished = false;       ///< RunResult::env_finished equivalent
    bool pruned = false;         ///< retired on state re-convergence
    /// Permeability mode: per-signal first tick (index = SignalId) where
    /// the lane's post-step signals differed from the golden trace;
    /// kInvalidTick = never. Recorded online over the common prefix —
    /// what Trace::first_difference(value-diffs-only) computes.
    std::vector<runtime::Tick> first_diff;
    /// Coverage mode: the monitor snapshot section at run end (EA
    /// detection state; golden end state for pruned/skipped runs).
    std::vector<std::uint64_t> monitors;
    /// Coverage mode: the environment snapshot section at run end — the
    /// words replay leaves in the plant (e.g. its failure report).
    std::vector<std::uint64_t> environment;
};

class BatchRunner {
public:
    /// Attribution seal (permeability mode): declares which first-diff
    /// facts decide a lane's outcome, so the lane can retire the moment
    /// they are all in. First diffs are recorded in time order — at the
    /// end of tick k every recorded diff is <= k and every future one is
    /// >= k+1 — which makes two retirement rules exact:
    ///
    ///  - any_of (direct attribution's contamination witnesses, the
    ///    module's non-injected inputs): once ANY of them has a first
    ///    diff c <= k, the contamination minimum is final, and an output
    ///    whose diff is still unrecorded can only diff at >= k+1 > c —
    ///    decided not-affected. Must be empty when the consumer reads
    ///    raw output first-diffs (the any-output-diff ablation), which
    ///    a later diff would still change.
    ///  - all_of (the module's outputs): once ALL of them have a first
    ///    diff <= k, each is <= any contamination value that could still
    ///    arrive (>= k+1) — decided affected — and the recorded diffs
    ///    themselves are exact.
    ///
    /// Sealed lanes may under-record first diffs of signals outside the
    /// rule; consumers must read only what their rule covers.
    struct SealRule {
        std::vector<model::SignalId> any_of;
        std::vector<model::SignalId> all_of;
    };
    /// submit() seal handle meaning "never seal" (coverage mode, or
    /// consumers without a sound rule).
    static constexpr std::uint32_t kNoSeal = 0xffffffffU;

    /// What the consumer reads from the outcomes; decides lane
    /// retirement policy and which outcome fields are recorded.
    enum class Mode {
        /// Permeability estimation reads fired + first_diff only, and
        /// attribution uses the common trace prefix — a lane alive at the
        /// golden end can no longer change its outcome and retires there.
        kPermeability,
        /// Coverage experiments read fired + monitor state; EAs can still
        /// fire after the golden end, so lanes run to environment finish.
        kCoverage,
    };

    /// Default lanes per lockstep batch. Wide batches amortize the
    /// low-occupancy tail (lanes retire at different ticks); at 256
    /// lanes the arrestment SoA state is ~200 KiB — still cache
    /// resident — and the Table-1 campaign measures fastest here.
    static constexpr std::size_t kAutoWidth = 256;

    /// `injector` must be installed on `sim`; the reference path arms it.
    BatchRunner(runtime::Simulator& sim, Injector& injector) noexcept
        : sim_(&sim), injector_(&injector) {}

    void set_mode(Mode mode) noexcept { mode_ = mode; }
    /// Lanes per lockstep batch; 0 = auto (kAutoWidth). A test seam: the
    /// outcomes do not depend on the width.
    void set_width(std::size_t width) noexcept { width_ = width; }
    [[nodiscard]] std::size_t effective_width() const noexcept {
        return width_ == 0 ? kAutoWidth : width_;
    }

    /// Golden run of the current case; its tick budget is the runs'.
    /// Without boundary snapshots flush() takes the reference path.
    /// Reset-only data (capture_reset_data) serves periodic plans only:
    /// one-shot lanes fork from the stride boundaries and read `last`.
    void set_golden(std::shared_ptr<const GoldenCaseData> golden) noexcept {
        golden_ = std::move(golden);
    }

    /// Registers a seal rule for later submits; returns its handle.
    /// Rules persist across clear() — consumers register once per
    /// (module, port) and reuse the handles for every case.
    std::uint32_t add_seal_rule(SealRule rule);

    /// Queues one injection plan. Returns the ticket index for
    /// outcome(). `seal` is an add_seal_rule() handle, or kNoSeal to run
    /// the lane to its normal retirement; periodic plans take no seal and
    /// run in coverage mode only. `seed` drives a periodic plan's
    /// kRandomBit draws, as Injector::arm's does.
    std::size_t submit(const Injection& injection, std::uint32_t seal = kNoSeal,
                       std::uint64_t seed = 1);

    /// Runs every queued injection — as lanes, or replayed on the
    /// reference path. Outcomes become valid, indexed by ticket in
    /// submission order.
    void flush();

    [[nodiscard]] const BatchOutcome& outcome(std::size_t ticket) const {
        return outcomes_.at(ticket);
    }

    /// Drops outcomes and tickets (start of a new case).
    void clear() {
        pending_.clear();
        outcomes_.clear();
    }

    [[nodiscard]] const FastPathStats& stats() const noexcept { return stats_; }
    [[nodiscard]] FastPathStats& stats() noexcept { return stats_; }

private:
    struct Lane {
        std::size_t ticket = 0;
        runtime::Tick t0 = 0;
        std::uint32_t seal = kNoSeal;
    };
    struct Pending {
        std::size_t ticket = 0;
        std::uint32_t seal = kNoSeal;
        std::uint64_t seed = 1;
        Injection inj;
    };
    /// Flip schedule of a lane: fires at `next`, then every `period`
    /// ticks — Injector::due's rule at the same pipeline point. A
    /// one-shot plan's schedule has period 0 and fires once.
    struct Schedule {
        runtime::Tick next = 0;
        runtime::Tick period = 0;
        runtime::BatchFlip flip;
        unsigned random_width = 0;  ///< kRandomBit draw bound; 0 = fixed bit
        util::Rng rng;
        bool fired = false;
    };

    void replay_pending();
    void run_batch(const Pending* batch, std::size_t count, bool periodic);
    void launch_due(runtime::Tick now);
    void retire_lane(std::size_t lane, runtime::Tick end, bool finished, bool pruned,
                     bool sealed = false);
    [[nodiscard]] bool seal_decided(std::size_t lane) const noexcept;
    [[nodiscard]] static runtime::BatchFlip to_flip(const Injection& inj) noexcept;

    runtime::Simulator* sim_;
    Injector* injector_;
    std::shared_ptr<const GoldenCaseData> golden_;
    Mode mode_ = Mode::kPermeability;
    std::size_t width_ = 0;
    std::vector<SealRule> seal_rules_;
    std::vector<Pending> pending_;
    std::vector<BatchOutcome> outcomes_;
    FastPathStats stats_;

    // Per-batch working state (capacity reused across batches).
    std::unique_ptr<runtime::ScalarLaneBackend> fallback_;
    runtime::BatchState state_;
    std::vector<Lane> lanes_;
    std::vector<Schedule> schedule_;         ///< per-lane flip schedules
    std::vector<runtime::Tick> first_diff_;  ///< [signal * width + lane]
    std::vector<std::uint8_t> mismatch_;     ///< per-lane, reset each tick
    std::vector<std::uint8_t> fd_new_;       ///< lane recorded a first diff this tick
};

}  // namespace epea::fi
