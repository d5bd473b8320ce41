// Fused SoA batch backend for the arrestment target (DESIGN.md §9).
//
// ArrestmentBatchBackend advances every live lane of a BatchState one
// tick by running the whole tick pipeline — plant sense, launch flips,
// frame loads, the six module behaviours, the armed EAs, plant actuate —
// directly on the word-major lane rows, with no virtual dispatch,
// snapshot gather/scatter or trace recording. The plant and module
// stages are lane loops over the step templates the scalar Simulator
// runs (Plant::sense_words/actuate_words, <Module>::step_words),
// instantiated over one lane's column of the rows, so lane state stays
// bit-identical to a scalar Simulator stepped from the same snapshot.
// What the kernel owns is the layout binding: which rows hold each
// module's state words, frame and output signals.
//
// begin() re-validates the contract per batch: the simulator runs the
// arrestment Plant and the six arrestment behaviours in schedule order,
// each module's state words and frame are registered consecutively in
// the memory map, and the monitor set is made exclusively of
// ExecutableAssertions. Anything else — a different target, armed
// recoverers/ERMs, an unknown monitor type — returns false, routing the
// batch to the target-agnostic ScalarLaneBackend.
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

    [[nodiscard]] bool begin(runtime::BatchState& state) override;
    void step(runtime::BatchState& state, runtime::Tick now) override;

private:
    /// One-time binding of the modules, the plant and their rows against
    /// the simulator; false = not the arrestment layout (memoized either
    /// way).
    [[nodiscard]] bool resolve();

    /// Rows of one stage: memory rows of a module's state words and
    /// input frame, signal rows of its outputs (the plant uses outputs
    /// only, for its sensor registers).
    struct Binding {
        std::size_t words = 0;             ///< memory word of state word 0
        std::size_t frame = 0;             ///< memory word of input port 0
        std::vector<std::size_t> inputs;   ///< signal loaded into each port
        std::vector<std::size_t> outputs;  ///< signal of each output port
        std::vector<std::uint8_t> widths;  ///< width of each output signal
    };

    struct EaRef {
        std::size_t signal = 0;  ///< SignalId index the EA guards
        ea::EaParams params;
    };

    runtime::Simulator* sim_;
    int resolved_ = 0;  ///< 0 = not yet, 1 = ok, -1 = unsupported layout

    // The configuration the kernel reads every step comes from the bound
    // objects themselves (re-parameterised by ArrestmentSystem::configure).
    const Plant* plant_ = nullptr;
    const DistSModule* dist_ = nullptr;
    const CalcModule* calc_ = nullptr;

    std::array<Binding, 6> modules_;  ///< in schedule order
    Binding sensors_;                 ///< the plant's sensor registers
    std::size_t actuator_ = 0;        ///< signal the plant actuates from

    // Armed EAs, refreshed every begin() (params are re-calibrated per
    // test case and monitors re-armed per experiment).
    std::vector<EaRef> eas_;
};

}  // namespace epea::target
