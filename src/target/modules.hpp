// The six software modules of the arrestment controller (paper §4, Fig 2).
//
// Each module's state is one array of words in registration order:
// persistent state in RAM words, per-invocation temporaries in stack
// words (both injectable). A WordBlock table per module names the words
// and drives both their MemoryMap registration (init) and the fused lane
// kernel's binding (target/batch_kernel.*).
//
// Each module's behaviour is written once, as a static template
// `step_words(s, io, ...)` over two accessors: `s[k]` is state word k,
// and `io` offers the ModuleContext port calls (in, in_bool, out,
// out_bool). The scalar ModuleBehaviour::step instantiates it over the
// module's own word array and a ModuleContext; the fused kernel
// instantiates it over one lane's column of the SoA memory rows.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "runtime/module_behaviour.hpp"
#include "target/arrestment_system.hpp"

namespace epea::target {

/// A run of `count` consecutive state words of one module, starting at
/// word `first`: registered as "<module>.<stem>", or as
/// "<module>.<stem>[k]" when count > 1.
struct WordBlock {
    std::size_t first = 0;
    const char* stem = "";
    std::uint8_t width = 16;
    std::size_t count = 1;
    runtime::Region region = runtime::Region::kRam;
};

/// True when `blocks` cover words [0, words) in order, which ties a
/// module's word enum to its table.
template <std::size_t N>
[[nodiscard]] constexpr bool tiles(const std::array<WordBlock, N>& blocks,
                                   std::size_t words) noexcept {
    std::size_t next = 0;
    for (const WordBlock& b : blocks) {
        if (b.first != next) return false;
        next += b.count;
    }
    return next == words;
}

/// Registers `words[0..)` with the memory map as `blocks` describe.
void register_words(runtime::InitContext& ctx, std::string_view module,
                    std::span<const WordBlock> blocks, std::uint32_t* words);

[[nodiscard]] constexpr std::int32_t clampi(std::int32_t v, std::int32_t lo,
                                            std::int32_t hi) noexcept {
    return v < lo ? lo : (v > hi ? hi : v);
}

/// Median of five words via a branchless sorting network: the middle
/// element of the sorted five.
[[nodiscard]] constexpr std::uint32_t median5(std::uint32_t s0, std::uint32_t s1,
                                              std::uint32_t s2, std::uint32_t s3,
                                              std::uint32_t s4) noexcept {
    const auto cswap = [](std::uint32_t& a, std::uint32_t& b) noexcept {
        const std::uint32_t lo = std::min(a, b);
        b = std::max(a, b);
        a = lo;
    };
    cswap(s0, s1);
    cswap(s3, s4);
    cswap(s2, s4);
    cswap(s2, s3);
    cswap(s0, s3);
    cswap(s0, s2);
    cswap(s1, s4);
    cswap(s1, s3);
    cswap(s1, s2);
    return s2;
}

/// CLOCK: millisecond counter and slot-schedule pointer. `mscnt` counts
/// ticks (16 bit); `ms_slot_nbr` maps the distance index i into one of
/// the ten schedule slots via a ROM-initialised map (identity).
class ClockModule final : public runtime::ModuleBehaviour {
public:
    static constexpr std::uint32_t kSlots = 10;

    enum Word : std::size_t { kMscnt, kSlotMap, kWords = kSlotMap + kSlots };
    static constexpr std::string_view kName = "CLOCK";
    static constexpr std::array kBlocks{WordBlock{kMscnt, "mscnt", 16},
                                        WordBlock{kSlotMap, "slot_map", 8, kSlots}};

    template <class S, class Io>
    static void step_words(S& s, Io& io) {
        const std::uint32_t mscnt = (s[kMscnt] + 1) & 0xffffU;
        s[kMscnt] = mscnt;
        io.out(0, s[kSlotMap + io.in(0) % kSlots] & 0xffU);
        io.out(1, mscnt);
    }

    void init(runtime::InitContext& ctx) override {
        register_words(ctx, kName, kBlocks, w_.data());
    }
    void reset() override;
    void step(runtime::ModuleContext& ctx) override { step_words(w_, ctx); }

    [[nodiscard]] std::span<const std::uint32_t> words() const noexcept { return w_; }

private:
    std::array<std::uint32_t, kWords> w_{};
};

/// DIST_S: distance/speed sensing from the cable-drum pulse counter
/// (PACNT) and the capture timer pair (TIC1/TCNT). Outputs the decoded
/// pulse count, a debounced slow-speed flag (from a 128 ms windowed
/// rate) and a latched stopped flag (from the age of the last pulse).
class DistSModule final : public runtime::ModuleBehaviour {
public:
    static constexpr std::uint32_t kMaxPlausibleDelta = 8;  ///< pulses/ms
    static constexpr std::uint32_t kBins = 16;              ///< 8 ms bins
    static constexpr std::uint32_t kBinMs = 8;              ///< window 128 ms
    static constexpr std::uint32_t kSlowRateThreshold = 4;  ///< pulses/128 ms
    static constexpr std::uint32_t kSlowDebounce = 50;      ///< ms
    static constexpr std::uint32_t kStopDebounce = 16;      ///< ms

    enum Word : std::size_t {
        kPrev, kPulscnt, kBin, kAcc = kBin + kBins, kPhase, kBinIdx, kRate,
        kSlowDeb, kStopDeb, kStopLatch, kDelta, kWords,
    };
    static constexpr std::string_view kName = "DIST_S";
    static constexpr std::array kBlocks{
        WordBlock{kPrev, "prev", 8},          WordBlock{kPulscnt, "pulscnt", 16},
        WordBlock{kBin, "bin", 8, kBins},     WordBlock{kAcc, "acc", 8},
        WordBlock{kPhase, "phase", 8},        WordBlock{kBinIdx, "bin_idx", 8},
        WordBlock{kRate, "rate", 16},         WordBlock{kSlowDeb, "slow_deb", 8},
        WordBlock{kStopDeb, "stop_deb", 8},   WordBlock{kStopLatch, "stop_latch", 8},
        WordBlock{kDelta, "delta", 8, 1, runtime::Region::kStack}};

    /// `first` is the one-shot baseline latch (bool-like; not a word).
    template <class S, class Io, class Flag>
    static void step_words(S& s, Io& io, Flag& first, const SoftwareConfig& cfg) {
        // Wrap-around decode of the 8-bit pulse counter; the first
        // invocation only captures the baseline.
        const std::uint32_t cnt = io.in(0);
        std::uint32_t delta = (cnt - s[kPrev]) & 0xffU;
        if (first) {
            delta = 0;
            first = false;
        }
        s[kPrev] = cnt & 0xffU;
        if (delta > kMaxPlausibleDelta) delta = kMaxPlausibleDelta;
        s[kDelta] = delta;

        s[kPulscnt] = (s[kPulscnt] + s[kDelta]) & 0xffffU;

        // Windowed rate: pulses over the last kBins x kBinMs = 128 ms.
        s[kAcc] = (s[kAcc] + s[kDelta]) & 0xffU;
        s[kPhase] = (s[kPhase] + 1) & 0xffU;
        if (s[kPhase] >= kBinMs) {
            s[kPhase] = 0;
            const std::uint32_t bi = s[kBinIdx] % kBins;
            s[kRate] = (s[kRate] + s[kAcc] - s[kBin + bi]) & 0xffffU;
            s[kBin + bi] = s[kAcc];
            s[kAcc] = 0;
            s[kBinIdx] = (bi + 1) % kBins;
        }
        s[kSlowDeb] = s[kRate] < kSlowRateThreshold
                          ? std::min<std::uint32_t>(s[kSlowDeb] + 1, 255)
                          : 0;

        // Stopped: the last pulse capture (TIC1) is older than the
        // configured age on the free-running timer (TCNT). Debounced,
        // then latched.
        const std::uint32_t age = (io.in(2) - io.in(1)) & 0xffffU;
        s[kStopDeb] = age > cfg.stop_age_counts
                          ? std::min<std::uint32_t>(s[kStopDeb] + 1, 255)
                          : 0;
        if (s[kStopDeb] >= kStopDebounce) s[kStopLatch] = 1;

        io.out(0, s[kPulscnt]);
        io.out_bool(1, s[kSlowDeb] >= kSlowDebounce);
        io.out_bool(2, s[kStopLatch] != 0);
    }

    explicit DistSModule(const SoftwareConfig& cfg) : cfg_(cfg) {}

    void set_config(const SoftwareConfig& cfg) { cfg_ = cfg; }
    [[nodiscard]] const SoftwareConfig& config() const noexcept { return cfg_; }

    void init(runtime::InitContext& ctx) override {
        register_words(ctx, kName, kBlocks, w_.data());
    }
    void reset() override {
        w_.fill(0);
        first_ = true;
    }
    void step(runtime::ModuleContext& ctx) override { step_words(w_, ctx, first_, cfg_); }

    // `first_` is the only state not registered with the memory map (a
    // one-shot latch, deliberately not injectable); snapshots must carry
    // it explicitly.
    void save_state(runtime::StateWriter& w) const override { w.boolean(first_); }
    void restore_state(runtime::StateReader& r) override { first_ = r.boolean(); }

    [[nodiscard]] std::span<const std::uint32_t> words() const noexcept { return w_; }

private:
    SoftwareConfig cfg_;
    std::array<std::uint32_t, kWords> w_{};
    bool first_ = true;
};

/// CALC: the pressure program. Ratchets the distance index i towards
/// pulscnt/32 and computes SetValue from the time-indexed pressure table,
/// capped by a distance-based soft start, tapered near the predicted
/// stop, overridden at slow speed and zeroed at the emergency deadline.
class CalcModule final : public runtime::ModuleBehaviour {
public:
    static constexpr std::uint32_t kProgSteps = 16;
    static constexpr std::uint32_t kProgStepMs = 512;  ///< mscnt >> 9
    static constexpr std::uint32_t kTaperMs = 512;
    static constexpr std::uint32_t kTaperFloorMargin = 4;

    enum Word : std::size_t { kProg, kBase = kProg + kProgSteps, kCap, kWords };
    static constexpr std::string_view kName = "CALC";
    static constexpr std::array kBlocks{
        WordBlock{kProg, "prog", 16, kProgSteps},
        WordBlock{kBase, "base", 16, 1, runtime::Region::kStack},
        WordBlock{kCap, "cap", 16, 1, runtime::Region::kStack}};

    template <class S, class Io>
    static void step_words(S& s, Io& io, const SoftwareConfig& cfg) {
        const std::uint32_t i_in = io.in(0) & 0xffffU;
        const std::uint32_t mscnt = io.in(1) & 0xffffU;
        const std::uint32_t pulscnt = io.in(2) & 0xffffU;
        const bool slow = io.in_bool(3);
        const bool stopped = io.in_bool(4);

        // Distance index: one ratchet step per tick towards pulscnt/32,
        // frozen once the aircraft is stopped.
        const std::uint32_t dist_target = pulscnt >> 5;
        std::uint32_t i_next = i_in;
        if (!stopped && dist_target > i_in) i_next = (i_in + 1) & 0xffffU;
        io.out(0, i_next);

        // Time-programmed base pressure, tapered towards slow pressure as
        // the predicted stop time approaches.
        std::uint32_t base =
            s[kProg + std::min<std::uint32_t>(mscnt >> 9, kProgSteps - 1) % kProgSteps];
        if (mscnt >= cfg.taper_end_ms) {
            const std::uint32_t rem = mscnt - cfg.taper_end_ms;
            const std::uint32_t floor_p = cfg.slow_pressure + kTaperFloorMargin;
            if (base > floor_p) {
                base = rem >= kTaperMs
                           ? floor_p
                           : floor_p + (base - floor_p) * (kTaperMs - rem) / kTaperMs;
            }
        }
        s[kBase] = base;

        // Soft start: cap by travelled distance (the view of i in the
        // frame, not the freshly ratcheted value — the cap is a function
        // of this invocation's inputs only).
        s[kCap] = cfg.plateau_pressure * (16 + std::min<std::uint32_t>(i_in, 32)) / 32;

        std::uint32_t set = std::min<std::uint32_t>(s[kBase], s[kCap]);
        if (slow) set = cfg.slow_pressure;
        if (mscnt >= cfg.emergency_ms) set = 0;
        io.out(1, set & 0xffffU);
    }

    explicit CalcModule(const SoftwareConfig& cfg) : cfg_(cfg) {}

    void set_config(const SoftwareConfig& cfg);
    [[nodiscard]] const SoftwareConfig& config() const noexcept { return cfg_; }

    void init(runtime::InitContext& ctx) override {
        register_words(ctx, kName, kBlocks, w_.data());
    }
    void reset() override;
    void step(runtime::ModuleContext& ctx) override { step_words(w_, ctx, cfg_); }

    [[nodiscard]] std::span<const std::uint32_t> words() const noexcept { return w_; }

private:
    void rebuild_program();

    SoftwareConfig cfg_;
    std::array<std::uint32_t, kWords> w_{};
};

/// PRES_S: brake pressure sensing. Median-of-5 despiking of the ADC,
/// x4 scaling into SetValue units and slew-limited tracking.
class PresSModule final : public runtime::ModuleBehaviour {
public:
    static constexpr int kMaxSlewPerMs = 10;
    static constexpr std::uint32_t kTaps = 5;

    enum Word : std::size_t { kBuf, kIdx = kBuf + kTaps, kFilt, kMed, kWords };
    static constexpr std::string_view kName = "PRES_S";
    static constexpr std::array kBlocks{
        WordBlock{kBuf, "buf", 8, kTaps}, WordBlock{kIdx, "idx", 8},
        WordBlock{kFilt, "filt", 16},
        WordBlock{kMed, "med", 8, 1, runtime::Region::kStack}};

    template <class S, class Io>
    static void step_words(S& s, Io& io) {
        static_assert(kTaps == 5, "the median below takes five taps");
        s[kBuf + s[kIdx] % kTaps] = io.in(0) & 0xffU;
        s[kIdx] = (s[kIdx] + 1) % kTaps;
        s[kMed] = median5(s[kBuf], s[kBuf + 1], s[kBuf + 2], s[kBuf + 3], s[kBuf + 4]);

        const auto target = static_cast<std::int32_t>(s[kMed] * 4);
        const auto prev = static_cast<std::int32_t>(s[kFilt]);
        const std::int32_t delta = clampi(target - prev, -kMaxSlewPerMs, kMaxSlewPerMs);
        s[kFilt] = static_cast<std::uint32_t>(prev + delta) & 0xffffU;
        io.out(0, s[kFilt]);
    }

    void init(runtime::InitContext& ctx) override {
        register_words(ctx, kName, kBlocks, w_.data());
    }
    void reset() override { w_.fill(0); }
    void step(runtime::ModuleContext& ctx) override { step_words(w_, ctx); }

    [[nodiscard]] std::span<const std::uint32_t> words() const noexcept { return w_; }

private:
    std::array<std::uint32_t, kWords> w_{};
};

/// V_REG: pressure regulator. Feed-forward from SetValue plus PI action
/// on the SetValue-IsValue error (deadband wider than the 4-unit ADC
/// quantum so the loop settles instead of hunting, clamped integrator,
/// saturation-aware wind-up protection).
class VRegModule final : public runtime::ModuleBehaviour {
public:
    static constexpr std::int32_t kDeadband = 5;
    static constexpr std::int32_t kIntegLimit = 3000;

    enum Word : std::size_t { kInteg, kPrevOut, kErr, kWords };
    static constexpr std::string_view kName = "V_REG";
    static constexpr std::array kBlocks{
        WordBlock{kInteg, "integ", 16}, WordBlock{kPrevOut, "prev_out", 16},
        WordBlock{kErr, "err", 16, 1, runtime::Region::kStack}};

    template <class S, class Io>
    static void step_words(S& s, Io& io) {
        const auto set = static_cast<std::int32_t>(io.in(0) & 0xffffU);
        const auto is = static_cast<std::int32_t>(io.in(1) & 0xffffU);

        std::int32_t err = set - is;
        if (err >= -kDeadband && err <= kDeadband) err = 0;
        s[kErr] = static_cast<std::uint32_t>(err) & 0xffffU;
        const std::int32_t err_db = util::sign_extend(s[kErr], 16);

        // Integrate outside the deadband, but not against a saturated
        // output (wind-up protection).
        const bool saturated_low = s[kPrevOut] == 0 && err_db < 0;
        const bool saturated_high = s[kPrevOut] == 0xffffU && err_db > 0;
        std::int32_t integ = util::sign_extend(s[kInteg], 16);
        if (!saturated_low && !saturated_high) {
            integ = clampi(integ + err_db / 4, -kIntegLimit, kIntegLimit);
        }
        s[kInteg] = static_cast<std::uint32_t>(integ) & 0xffffU;

        const std::int32_t ff = (set >> 2) * 256;
        const std::int32_t u = ff + err_db * 16 + integ * 4;
        s[kPrevOut] = static_cast<std::uint32_t>(clampi(u, 0, 65535));
        io.out(0, s[kPrevOut]);
    }

    void init(runtime::InitContext& ctx) override {
        register_words(ctx, kName, kBlocks, w_.data());
    }
    void reset() override { w_.fill(0); }
    void step(runtime::ModuleContext& ctx) override { step_words(w_, ctx); }

    [[nodiscard]] std::span<const std::uint32_t> words() const noexcept { return w_; }

private:
    std::array<std::uint32_t, kWords> w_{};
};

/// PRES_A: valve actuation. Slew-limits the regulator output and
/// quantises it to the PWM resolution before writing TOC2.
class PresAModule final : public runtime::ModuleBehaviour {
public:
    static constexpr int kMaxSlewPerMs = 4096;
    static constexpr std::uint32_t kPwmMask = 0xfffcU;

    enum Word : std::size_t { kCmd, kTgt, kWords };
    static constexpr std::string_view kName = "PRES_A";
    static constexpr std::array kBlocks{
        WordBlock{kCmd, "cmd", 16},
        WordBlock{kTgt, "tgt", 16, 1, runtime::Region::kStack}};

    template <class S, class Io>
    static void step_words(S& s, Io& io) {
        s[kTgt] = io.in(0) & 0xffffU;
        const std::int32_t diff =
            static_cast<std::int32_t>(s[kTgt]) - static_cast<std::int32_t>(s[kCmd]);
        const std::int32_t slewed =
            static_cast<std::int32_t>(s[kCmd]) + clampi(diff, -kMaxSlewPerMs, kMaxSlewPerMs);
        s[kCmd] = static_cast<std::uint32_t>(slewed) & 0xffffU;
        io.out(0, s[kCmd] & kPwmMask);
    }

    void init(runtime::InitContext& ctx) override {
        register_words(ctx, kName, kBlocks, w_.data());
    }
    void reset() override { w_.fill(0); }
    void step(runtime::ModuleContext& ctx) override { step_words(w_, ctx); }

    [[nodiscard]] std::span<const std::uint32_t> words() const noexcept { return w_; }

private:
    std::array<std::uint32_t, kWords> w_{};
};

static_assert(tiles(ClockModule::kBlocks, ClockModule::kWords));
static_assert(tiles(DistSModule::kBlocks, DistSModule::kWords));
static_assert(tiles(CalcModule::kBlocks, CalcModule::kWords));
static_assert(tiles(PresSModule::kBlocks, PresSModule::kWords));
static_assert(tiles(VRegModule::kBlocks, VRegModule::kWords));
static_assert(tiles(PresAModule::kBlocks, PresAModule::kWords));

}  // namespace epea::target
