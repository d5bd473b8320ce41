// Environment — the world outside the software barrier: the physical
// plant, sensors (which drive system-input signals) and actuators (which
// consume system-output signals). The paper's key observation that errors
// can leave the system through TOC2, disturb the plant, and re-enter
// through ADC (§6.2) requires this closed loop.
#pragma once

#include "runtime/signal_store.hpp"
#include "runtime/snapshot.hpp"
#include "runtime/types.hpp"

namespace epea::runtime {

class Environment {
public:
    virtual ~Environment() = default;

    /// Restores the initial physical state (called before every run).
    virtual void reset() = 0;

    /// Advances the plant by one tick and writes the system input signals
    /// (sensor/hardware registers) for this tick.
    virtual void sense(SignalStore& store, Tick now) = 0;

    /// Reads the system output signals (actuator registers) produced by
    /// the software this tick and applies them to the plant.
    virtual void actuate(const SignalStore& store, Tick now) = 0;

    /// True when the scenario has reached its natural end (e.g. the
    /// aircraft has been arrested); the simulator stops at the first tick
    /// where this holds.
    [[nodiscard]] virtual bool finished() const = 0;

    // -- snapshot support (injection engine, DESIGN.md §9) -------------------

    /// True when save_state/restore_state round-trip the *complete*
    /// mutable plant state. Environments that do not opt in make every
    /// injection run replay (Simulator::snapshot_supported).
    [[nodiscard]] virtual bool snapshot_supported() const { return false; }

    /// Serializes every mutable plant variable (only called when
    /// snapshot_supported() is true).
    virtual void save_state(StateWriter& w) const { (void)w; }

    /// Restores exactly what save_state wrote, in the same order.
    virtual void restore_state(StateReader& r) { (void)r; }
};

}  // namespace epea::runtime
