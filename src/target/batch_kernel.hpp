// Fused SoA batch backend for the arrestment target (DESIGN.md §9).
//
// ArrestmentBatchBackend advances every live lane of a BatchState one
// tick by running the whole tick pipeline — plant sense, launch flips,
// frame loads, the six module behaviours, the armed EAs, plant actuate —
// directly on the word-major lane rows, as straight-line loops with no
// virtual dispatch, snapshot gather/scatter or trace recording. Each
// stage transcribes the scalar implementation operation-for-operation
// (including floating-point expression shapes), so lane state stays
// bit-identical to a scalar Simulator stepped from the same snapshot.
//
// begin() re-validates the contract per batch: the arrestment model
// (14 signals, six modules in schedule order), the registered memory
// word layout, the Plant's 16-word state stream, and a monitor set made
// exclusively of ExecutableAssertions. Anything else — a different
// target, armed recoverers/ERMs, an unknown monitor type — returns
// false, routing the batch to the target-agnostic ScalarLaneBackend.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ea/assertion.hpp"
#include "runtime/batch.hpp"
#include "runtime/simulator.hpp"
#include "target/arrestment_system.hpp"

namespace epea::target {

class ArrestmentBatchBackend final : public runtime::BatchBackend {
public:
    explicit ArrestmentBatchBackend(runtime::Simulator& sim) noexcept : sim_(&sim) {}

    /// Mirrors ArrestmentSystem::configure — the kernel needs the
    /// software-config scalars (not registered as memory words) and the
    /// plant's test-case parameters.
    void configure(const SoftwareConfig& cfg, const TestCase& tc,
                   const PlantConstants& pc) noexcept {
        cfg_ = cfg;
        tc_ = tc;
        pc_ = pc;
    }

    [[nodiscard]] bool begin(runtime::BatchState& state) override;
    void step(runtime::BatchState& state, runtime::Tick now) override;

private:
    /// One-time resolution of signal/memory-word indices against the
    /// simulator's model and memory map; false = not the arrestment
    /// layout (memoized either way).
    [[nodiscard]] bool resolve();

    struct EaRef {
        std::size_t signal = 0;  ///< SignalId index the EA guards
        ea::EaParams params;
    };

    runtime::Simulator* sim_;
    SoftwareConfig cfg_{};
    TestCase tc_{};
    PlantConstants pc_{};

    int resolved_ = 0;  ///< 0 = not yet, 1 = ok, -1 = unsupported layout

    // Signal row indices (= SignalId index) and widths.
    std::size_t s_pacnt_ = 0, s_tic1_ = 0, s_tcnt_ = 0, s_adc_ = 0;
    std::size_t s_slot_ = 0, s_mscnt_ = 0, s_puls_ = 0, s_slow_ = 0, s_stop_ = 0;
    std::size_t s_i_ = 0, s_set_ = 0, s_is_ = 0, s_out_ = 0, s_toc2_ = 0;
    std::vector<std::uint8_t> sig_width_;

    // Memory word indices, resolved by registration label.
    std::size_t f_clock_i_ = 0;
    std::size_t f_dist_pacnt_ = 0, f_dist_tic1_ = 0, f_dist_tcnt_ = 0;
    std::size_t f_calc_i_ = 0, f_calc_mscnt_ = 0, f_calc_puls_ = 0;
    std::size_t f_calc_slow_ = 0, f_calc_stop_ = 0;
    std::size_t f_press_adc_ = 0;
    std::size_t f_vreg_set_ = 0, f_vreg_is_ = 0;
    std::size_t f_presa_out_ = 0;
    std::size_t m_clock_mscnt_ = 0, m_clock_slot0_ = 0;
    std::size_t m_d_prev_ = 0, m_d_puls_ = 0, m_d_bin0_ = 0, m_d_acc_ = 0;
    std::size_t m_d_phase_ = 0, m_d_binidx_ = 0, m_d_rate_ = 0;
    std::size_t m_d_slowdeb_ = 0, m_d_stopdeb_ = 0, m_d_latch_ = 0, m_d_delta_ = 0;
    std::size_t m_c_prog0_ = 0, m_c_base_ = 0, m_c_cap_ = 0;
    std::size_t m_p_buf0_ = 0, m_p_idx_ = 0, m_p_filt_ = 0, m_p_med_ = 0;
    std::size_t m_v_integ_ = 0, m_v_prev_ = 0, m_v_err_ = 0;
    std::size_t m_a_cmd_ = 0, m_a_tgt_ = 0;
    std::vector<std::uint8_t> mem_width_;

    // Frame word index per (module, port) for kFrame launch flips.
    std::vector<std::vector<std::size_t>> frame_word_;
    std::vector<std::vector<std::uint8_t>> frame_width_;
    std::vector<std::vector<std::size_t>> frame_src_;  ///< signal index per (module, port)

    // Armed EAs, refreshed every begin() (params are re-calibrated per
    // test case and monitors re-armed per experiment).
    std::vector<EaRef> eas_;
};

}  // namespace epea::target
