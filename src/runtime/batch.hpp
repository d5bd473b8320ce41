// Structure-of-arrays batch state for lockstep multi-lane execution
// (DESIGN.md §9). N injection runs forked from golden boundary
// snapshots advance one tick of all live lanes per inner-loop pass; each
// mutable word of the simulator lives in a contiguous per-word array
// ("lane row"), so the per-lane loops of a batch backend are plain
// SIMD-friendly strides instead of pointer-chasing virtual state.
//
// Layering: this header is runtime-level — it knows Snapshots and the
// tick pipeline's flip points, but nothing about fault-injection plans
// or golden caches. The batch *scheduler* (fi/batch.*) owns lane
// lifecycle policy (fork, prune, retire, outcome extraction); a
// BatchBackend owns only the physics: advance every live lane one tick.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "model/ids.hpp"
#include "runtime/snapshot.hpp"
#include "runtime/types.hpp"

namespace epea::runtime {

/// One bit flip applied at a specific point of the tick pipeline —
/// the runtime-level form of an injection firing (the fi layer converts
/// its plans into these).
struct BatchFlip {
    enum class Point : std::uint8_t {
        kSignal,  ///< store signal, before frames are loaded
        kFrame,   ///< one module's frame copy of an input port, after load
        kMemory,  ///< registered RAM/stack word, after load
    };

    Point point = Point::kSignal;
    model::SignalId signal;      ///< kSignal
    model::ModuleId module;      ///< kFrame
    std::uint32_t port = 0;      ///< kFrame
    std::size_t word_index = 0;  ///< kMemory
    unsigned bit = 0;
};

/// Word counts of every snapshot section — the shape shared by the
/// Snapshot vectors and the BatchState lane rows.
struct SnapshotLayout {
    std::size_t signals = 0;
    std::size_t memory = 0;
    std::size_t behaviours = 0;
    std::size_t environment = 0;
    std::size_t monitors = 0;
    std::size_t recoverers = 0;

    [[nodiscard]] static SnapshotLayout of(const Snapshot& snap) noexcept {
        return SnapshotLayout{snap.signals.size(),     snap.memory.size(),
                              snap.behaviours.size(),  snap.environment.size(),
                              snap.monitors.size(),    snap.recoverers.size()};
    }

    [[nodiscard]] bool matches(const Snapshot& snap) const noexcept {
        return snap.signals.size() == signals && snap.memory.size() == memory &&
               snap.behaviours.size() == behaviours &&
               snap.environment.size() == environment &&
               snap.monitors.size() == monitors && snap.recoverers.size() == recoverers;
    }
};

/// The SoA lane container. Every section is stored word-major: the W
/// values of snapshot word `w` live at `row(w)[0..W)`, one per lane.
/// Live lanes occupy slots [0, live()); retiring a lane swaps the last
/// live lane into its slot so the hot loops only ever touch a dense
/// prefix. Per-lane launch flips and finished flags ride along so a
/// backend needs no side tables.
///
/// Plant follows golden (DESIGN.md §9): lanes fork from golden
/// boundaries, and a lane's environment state depends only on that fork
/// and on the system outputs it consumed since. While those equal the
/// golden run's, the lane "follows": its environment words are the
/// golden run's at the current tick, held once per batch in the
/// reference column, and its own environment rows are stale. Every
/// read of a lane's environment words here (compares, assemble,
/// extract_environment) serves a follower's from the column, so callers
/// see exactly the words the lane would hold. Only a backend that steps
/// the column turns following on (follow_golden()).
class BatchState {
public:
    /// Re-shapes for a new batch of up to `width` lanes (capacity is
    /// reused across batches). All lanes start retired.
    void reset(const SnapshotLayout& layout, std::size_t width);

    [[nodiscard]] const SnapshotLayout& layout() const noexcept { return layout_; }
    [[nodiscard]] std::size_t width() const noexcept { return width_; }
    [[nodiscard]] std::size_t live() const noexcept { return live_; }

    // -- lane rows (word-major columns) -------------------------------------
    [[nodiscard]] std::uint32_t* signals_row(std::size_t word) noexcept {
        return signals_.data() + word * width_;
    }
    [[nodiscard]] const std::uint32_t* signals_row(std::size_t word) const noexcept {
        return signals_.data() + word * width_;
    }
    [[nodiscard]] std::uint32_t* memory_row(std::size_t word) noexcept {
        return memory_.data() + word * width_;
    }
    [[nodiscard]] std::uint64_t* behaviours_row(std::size_t word) noexcept {
        return behaviours_.data() + word * width_;
    }
    /// A follower's entries in these rows are stale: read its words
    /// through extract_environment() (or the reference column).
    [[nodiscard]] std::uint64_t* environment_row(std::size_t word) noexcept {
        return environment_.data() + word * width_;
    }
    [[nodiscard]] std::uint64_t* monitors_row(std::size_t word) noexcept {
        return monitors_.data() + word * width_;
    }
    [[nodiscard]] std::uint64_t* recoverers_row(std::size_t word) noexcept {
        return recoverers_.data() + word * width_;
    }

    // -- plant follows golden -----------------------------------------------

    /// The golden run the lanes fork from: per signal, its post-step
    /// value row (nullptr where the golden data holds none), `length`
    /// ticks long. Cleared by reset().
    void set_golden(std::span<const std::uint32_t* const> rows, Tick length) {
        golden_rows_.assign(rows.begin(), rows.end());
        golden_length_ = length;
    }
    [[nodiscard]] const std::uint32_t* golden_row(std::size_t signal) const noexcept {
        return signal < golden_rows_.size() ? golden_rows_[signal] : nullptr;
    }
    [[nodiscard]] Tick golden_length() const noexcept { return golden_length_; }

    /// Lanes activated from now on (until reset()) follow the golden
    /// environment. A backend turns this on in begin() when it steps the
    /// reference column.
    void follow_golden() noexcept { follow_ = true; }
    /// Live lanes that follow.
    [[nodiscard]] std::size_t followers() const noexcept { return followers_; }
    [[nodiscard]] bool follows(std::size_t lane) const noexcept { return follows_[lane] != 0; }
    /// Per-lane follow flags (non-zero = follows), for lane loops.
    [[nodiscard]] const std::uint8_t* follow_flags() const noexcept { return follows_.data(); }
    /// The reference column: the golden run's environment words at the
    /// current tick. Valid while followers() > 0; the backend steps it
    /// once per tick for all followers.
    [[nodiscard]] std::span<std::uint64_t> reference() noexcept { return reference_; }
    /// Ends `lane`'s following for good: its environment rows take the
    /// reference column's words.
    void stop_following(std::size_t lane) noexcept;

    // -- lane lifecycle -----------------------------------------------------

    /// Forks a new lane from `boundary` (its section shapes must match
    /// the layout). Returns the lane slot; the lane starts not-launching,
    /// not-finished, and following when follow_golden() is on — the
    /// first follower after none loads the reference column from
    /// `boundary`, later ones must fork at the column's tick.
    std::size_t activate(const Snapshot& boundary);

    /// Retires `lane` by swapping the last live lane into its slot.
    /// Returns the slot the swapped lane came from (== the new live
    /// count), so callers can mirror the swap in their own per-lane
    /// metadata. When `lane` is the last live lane no swap happens.
    std::size_t retire(std::size_t lane);

    // -- per-lane metadata --------------------------------------------------
    void set_launch(std::size_t lane, const BatchFlip& flip) noexcept {
        if (launching_[lane] == 0) ++launch_count_;
        launching_[lane] = 1;
        flips_[lane] = flip;
    }
    void clear_launches() noexcept {
        std::fill(launching_.begin(), launching_.begin() + static_cast<long>(live_), 0);
        launch_count_ = 0;
    }
    /// Lanes currently flagged to launch — lets backends skip the
    /// per-lane flip scans on the (vast majority of) ticks without any.
    [[nodiscard]] std::size_t launch_count() const noexcept { return launch_count_; }
    [[nodiscard]] bool launching(std::size_t lane) const noexcept {
        return launching_[lane] != 0;
    }
    [[nodiscard]] const BatchFlip& flip(std::size_t lane) const noexcept {
        return flips_[lane];
    }
    void set_finished(std::size_t lane, bool v) noexcept { finished_[lane] = v ? 1 : 0; }
    [[nodiscard]] bool finished(std::size_t lane) const noexcept {
        return finished_[lane] != 0;
    }
    /// Per-lane finished flags (0 or 1), for lane loops.
    [[nodiscard]] std::uint8_t* finished_flags() noexcept { return finished_.data(); }

    // -- whole-lane operations ----------------------------------------------

    /// Gathers one lane into a contiguous Snapshot (capacity reused).
    void assemble(std::size_t lane, Snapshot& out) const;
    /// Scatters a contiguous Snapshot into one lane's columns; the lane
    /// stops following.
    void load_lane(std::size_t lane, const Snapshot& snap);
    /// Bit-exact comparison of one lane against a snapshot (tick
    /// excluded) — the convergence-prune confirmation.
    [[nodiscard]] bool lane_equals(std::size_t lane, const Snapshot& snap) const noexcept;
    /// Bit-exact comparison of two lanes over all six sections — equal
    /// lanes at the same tick have the same future (the merge check).
    [[nodiscard]] bool lanes_equal(std::size_t a, std::size_t b) const noexcept;
    /// Copies one lane's monitor section into `out` (detection state of
    /// a retired coverage lane).
    void extract_monitors(std::size_t lane, std::vector<std::uint64_t>& out) const;
    /// Copies one lane's environment section into `out`.
    void extract_environment(std::size_t lane, std::vector<std::uint64_t>& out) const;

private:
    SnapshotLayout layout_;
    std::size_t width_ = 0;
    std::size_t live_ = 0;
    std::size_t launch_count_ = 0;
    std::vector<std::uint32_t> signals_;
    std::vector<std::uint32_t> memory_;
    std::vector<std::uint64_t> behaviours_;
    std::vector<std::uint64_t> environment_;
    std::vector<std::uint64_t> monitors_;
    std::vector<std::uint64_t> recoverers_;
    std::vector<std::uint8_t> launching_;
    std::vector<std::uint8_t> finished_;
    std::vector<BatchFlip> flips_;
    std::vector<const std::uint32_t*> golden_rows_;
    Tick golden_length_ = 0;
    bool follow_ = false;
    std::size_t followers_ = 0;
    std::vector<std::uint8_t> follows_;
    std::vector<std::uint64_t> reference_;
};

class Simulator;

/// Advances every live lane of a BatchState by one tick. Implementations
/// must reproduce Simulator::step_tick bit-exactly: the fused per-target
/// kernels (src/target/batch_kernel.*) run the target's module and plant
/// step templates in lane loops; ScalarLaneBackend is the target-agnostic
/// reference that multiplexes lanes through the scalar simulator.
class BatchBackend {
public:
    virtual ~BatchBackend() = default;

    /// Per-batch preparation (offset resolution, configuration capture,
    /// support checks). False routes the whole batch to the
    /// ScalarLaneBackend.
    [[nodiscard]] virtual bool begin(BatchState& state) = 0;

    /// One lockstep tick: for each live lane, run the full tick pipeline
    /// for tick `now` (applying the lane's launch flip at its pipeline
    /// point when launching(lane)) and update the lane's finished flag.
    virtual void step(BatchState& state, Tick now) = 0;
};

/// Target-agnostic batch backend: restores each lane into the scalar
/// simulator, steps one tick, captures the lane back. Bit-identical by
/// construction and works for any snapshot-supported target (the tank
/// system uses it); the fused kernels exist because this one pays the
/// full gather/scatter cost per lane-tick.
class ScalarLaneBackend final : public BatchBackend {
public:
    explicit ScalarLaneBackend(Simulator& sim) noexcept : sim_(&sim) {}

    [[nodiscard]] bool begin(BatchState& state) override;
    void step(BatchState& state, Tick now) override;

private:
    Simulator* sim_;
    Snapshot scratch_;
};

}  // namespace epea::runtime
