#include "fi/injector.hpp"

#include <stdexcept>
#include <string>

namespace epea::fi {

void check_target(const runtime::Simulator& sim, const Injection& inj) {
    const model::SystemModel& model = sim.system();
    switch (inj.kind) {
        case Injection::Kind::kSignal:
            if (inj.signal.valid() && inj.signal.index() < model.signal_count()) return;
            throw std::invalid_argument("injection targets no signal of the system (id " +
                                        std::to_string(inj.signal.value) + ")");
        case Injection::Kind::kModuleInput:
            if (inj.module.valid() && inj.module.index() < model.module_count() &&
                inj.port < model.module(inj.module).inputs.size()) {
                return;
            }
            throw std::invalid_argument(
                "injection targets no module input port of the system (module " +
                std::to_string(inj.module.value) + ", port " + std::to_string(inj.port) +
                ")");
        case Injection::Kind::kMemoryWord:
            if (inj.word_index < sim.memory().word_count()) return;
            throw std::invalid_argument("injection targets no memory word (index " +
                                        std::to_string(inj.word_index) + " of " +
                                        std::to_string(sim.memory().word_count()) + ")");
    }
    throw std::invalid_argument("injection of unknown kind");
}

unsigned flip_width(const runtime::Simulator& sim, const Injection& inj) {
    switch (inj.kind) {
        case Injection::Kind::kSignal:
            return sim.signals().width(inj.signal);
        case Injection::Kind::kModuleInput: {
            const model::SystemModel& model = sim.system();
            return model.signal(model.module(inj.module).inputs[inj.port]).width;
        }
        case Injection::Kind::kMemoryWord:
            return sim.memory().word(inj.word_index).width;
    }
    return 1U;
}

Injector::Injector(runtime::Simulator& sim) : sim_(&sim) {
    sim.set_pre_frame_hook(
        [this](runtime::Simulator& s, runtime::Tick now) { pre_frame(s, now); });
    sim.set_injection_hook(
        [this](runtime::Simulator& s, runtime::Tick now) { post_frame(s, now); });
}

Injector::~Injector() {
    sim_->set_pre_frame_hook(nullptr);
    sim_->set_injection_hook(nullptr);
}

void Injector::arm(std::vector<Injection> plan, std::uint64_t seed) {
    for (const Injection& inj : plan) check_target(*sim_, inj);
    plan_ = std::move(plan);
    rng_.reseed(seed);
    fired_ = 0;
    first_fire_ = runtime::kInvalidTick;
}

void Injector::disarm() { arm({}); }

bool Injector::due(const Injection& inj, runtime::Tick now) const noexcept {
    if (now < inj.at) return false;
    if (inj.period == 0) return now == inj.at;
    return (now - inj.at) % inj.period == 0;
}

void Injector::mark_fired(runtime::Tick now) noexcept {
    ++fired_;
    if (first_fire_ == runtime::kInvalidTick) first_fire_ = now;
}

unsigned Injector::pick_bit(const Injection& inj) {
    if (inj.bit != kRandomBit) return inj.bit;
    return static_cast<unsigned>(rng_.below(flip_width(*sim_, inj)));
}

void Injector::pre_frame(runtime::Simulator& sim, runtime::Tick now) {
    for (const Injection& inj : plan_) {
        if (inj.kind != Injection::Kind::kSignal || !due(inj, now)) continue;
        sim.signals().flip_bit(inj.signal, pick_bit(inj));
        mark_fired(now);
    }
}

void Injector::post_frame(runtime::Simulator& sim, runtime::Tick now) {
    for (const Injection& inj : plan_) {
        if (!due(inj, now)) continue;
        if (inj.kind == Injection::Kind::kModuleInput) {
            auto frame = sim.frame(inj.module);
            const unsigned width = flip_width(sim, inj);
            frame[inj.port] = util::flip_bit(frame[inj.port], pick_bit(inj), width);
            mark_fired(now);
        } else if (inj.kind == Injection::Kind::kMemoryWord) {
            sim.memory().flip_bit(inj.word_index, pick_bit(inj));
            mark_fired(now);
        }
    }
}

}  // namespace epea::fi
