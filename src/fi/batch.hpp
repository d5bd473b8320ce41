// The injection engine (DESIGN.md §9): the scheduler side of the
// structure-of-arrays batch kernel, and the only executor of injection
// plans.
//
// BatchRunner collects injection plans that share a golden run and
// advances them as lockstep lanes, one tick of all live lanes per
// inner-loop pass, through a runtime::BatchBackend (the target's fused
// SoA kernel, or the target-agnostic ScalarLaneBackend when none is
// installed). Retired lanes are compacted out of the hot loop.
//
//  - One-shot plans run in one rolling sweep per flush, in injection-tick
//    order. A lane forks from the golden boundary at the stride floor of
//    its injection tick, floor(at/kPruneCheckPeriod)*kPruneCheckPeriod —
//    the prefix up to `at` is fault-free, so it replays the golden run —
//    into a free slot of the sweep's effective_width() slots; a lane
//    whose fork tick passes while every slot is busy waits for a
//    following sweep. It launches its flip at `at` through the per-lane
//    schedule periodic lanes use: a one-shot plan is a schedule that
//    fires once. Once launched, it retires on convergence-prune (full
//    state equality with the golden boundary), on environment finish, on
//    the tick budget, and — in permeability mode — at the golden end,
//    where the outcome can no longer change, or earlier when the
//    consumer's attribution seal rule is decided (see SealRule).
//  - Merge: convergence-prune is the special case of a general rule — a
//    lane whose full state equals another live lane's at the same tick
//    has that lane's future. Every kMergeCheckPeriod ticks, fired
//    one-shot lanes at least that old are hashed; a follower whose state
//    equals a leader's word for word, with the same seal rule and no
//    first diff pending that the leader has recorded, retires into the
//    leader, and its outcome is resolved from the leader's when the
//    flush ends (see Merge).
//  - Periodic plans (the severe model; coverage mode only) fork from the
//    reset state, boundary[0], and launch their flip at every tick of
//    their schedule, drawing kRandomBit bits from a per-lane Rng seeded
//    like the replay's injector. A lane perturbed again every period
//    cannot prune, so it runs to environment finish or the tick budget;
//    periodic lanes never merge (their futures hold further draws).
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
#include <utility>
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

    /// Default live-lane capacity of a sweep: the slots one-shot lanes
    /// take at their fork tick (and the periodic lanes of one sweep).
    /// At 256 lanes the arrestment SoA state is ~200 KiB — still cache
    /// resident. On the Table-1 campaign 128 and 256 measure the same
    /// and 512 is slower (DESIGN.md §9).
    static constexpr std::size_t kAutoWidth = 256;

    /// Stride of the merge check: every kMergeCheckPeriod ticks, one-shot
    /// lanes at least this many ticks past their fork are hashed and
    /// state-equal ones merged. Young lanes mostly prune or seal within
    /// their first strides, so hashing them would be wasted work.
    static constexpr runtime::Tick kMergeCheckPeriod = 8 * kPruneCheckPeriod;

    /// One merge: the lane of ticket `follower` retired into the lane of
    /// ticket `leader` at the end of tick `at - 1`, the two holding the
    /// same full state. The follower keeps the first diffs it recorded
    /// before `at` and takes the leader's later ones and retirement,
    /// unless its own seal rule decides first (DESIGN.md §9).
    struct Merge {
        std::size_t follower = 0;
        std::size_t leader = 0;
        runtime::Tick at = 0;
    };

    /// `injector` must be installed on `sim`; the reference path arms it.
    BatchRunner(runtime::Simulator& sim, Injector& injector) noexcept
        : sim_(&sim), injector_(&injector) {}

    void set_mode(Mode mode) noexcept { mode_ = mode; }
    /// Live-lane capacity of a sweep; 0 = auto (kAutoWidth). A test seam:
    /// the outcomes do not depend on the width (at width 1 no merge can
    /// happen).
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

    /// The merges of the flushes since the last clear(), in the order
    /// they happened.
    [[nodiscard]] const std::vector<Merge>& merges() const noexcept { return merges_; }

    /// Drops outcomes and tickets (start of a new case).
    void clear() {
        pending_.clear();
        outcomes_.clear();
        exits_.clear();
        merges_.clear();
        merge_seals_.clear();
        merge_first_diff_.clear();
    }

    [[nodiscard]] const FastPathStats& stats() const noexcept { return stats_; }
    [[nodiscard]] FastPathStats& stats() noexcept { return stats_; }

private:
    /// Why a lane retired; the retirement checks run in this order.
    enum class Exit : std::uint8_t { kFinished, kBudget, kSealed, kPruned, kEnd };
    struct Retired {
        runtime::Tick k = 0;  ///< ticks completed at retirement
        Exit why = Exit::kEnd;
    };
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
    /// Runs one rolling sweep over `queue` (sorted by fork tick) and
    /// leaves in it the lanes that found no free slot.
    void run_sweep(std::vector<Pending>& queue, bool periodic);
    void launch_due(runtime::Tick now);
    void scan_signals(runtime::Tick t);
    void retire_lane(std::size_t lane, runtime::Tick k, Exit why);
    /// Compacts `lane` out of the batch, mirroring the swap in the
    /// per-lane side tables.
    void drop_lane(std::size_t lane);
    void merge_lanes(runtime::Tick k);
    void resolve_merges(std::size_t first);
    /// Golden ticks a retirement at `r` spares the lane.
    [[nodiscard]] runtime::Tick ticks_saved_after(const Retired& r) const noexcept;
    [[nodiscard]] bool seal_decided(std::size_t lane) const noexcept;
    [[nodiscard]] static runtime::Tick seal_tick(const SealRule& rule,
                                                 const std::vector<runtime::Tick>& first_diff);
    [[nodiscard]] static runtime::BatchFlip to_flip(const Injection& inj) noexcept;

    runtime::Simulator* sim_;
    Injector* injector_;
    std::shared_ptr<const GoldenCaseData> golden_;
    Mode mode_ = Mode::kPermeability;
    std::size_t width_ = 0;
    std::vector<SealRule> seal_rules_;
    std::vector<Pending> pending_;
    std::vector<BatchOutcome> outcomes_;
    std::vector<Retired> exits_;  ///< per ticket, valid once retired
    std::vector<Merge> merges_;
    std::vector<std::uint32_t> merge_seals_;         ///< per merge: the follower's seal
    std::vector<runtime::Tick> merge_first_diff_;    ///< per merge: [merge * signals + s]
    FastPathStats stats_;

    // Per-sweep working state (capacity reused across sweeps).
    std::unique_ptr<runtime::ScalarLaneBackend> fallback_;
    runtime::BatchState state_;
    std::vector<Pending> deferred_;
    std::vector<const std::uint32_t*> golden_rows_;  ///< golden trace row per signal
    std::size_t signals_ = 0;                         ///< signals per lane
    std::size_t mask_words_ = 0;                      ///< 64-bit words per signal mask
    /// Per seal rule, the any_of then the all_of signal mask
    /// ([rule * 2 * mask_words_ ...]).
    std::vector<std::uint64_t> seal_masks_;
    std::vector<Lane> lanes_;
    std::vector<Schedule> schedule_;          ///< per-lane flip schedules
    /// Live lanes whose schedule has a firing left (a periodic lane
    /// always has).
    std::size_t unfired_ = 0;
    std::vector<runtime::Tick> first_diff_;   ///< [lane * signals_ + s]
    std::vector<std::uint64_t> pending_mask_; ///< [lane * mask_words_ + w]: no diff yet
    std::vector<std::uint64_t> diff_;         ///< [w * width + lane], rebuilt each tick
    std::vector<std::uint8_t> mismatch_;      ///< per-lane: some signal off golden this tick
    std::vector<std::uint8_t> fd_new_;        ///< lane recorded a first diff this tick
    std::vector<std::uint32_t> hash_;         ///< per-lane state hash at a merge check
    /// Merge candidates: ((seal << 32) | hash, (recorded signals << 32) | slot).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> candidates_;
    std::vector<std::size_t> followers_;      ///< slots merged at this check
};

}  // namespace epea::fi
