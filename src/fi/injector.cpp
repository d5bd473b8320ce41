#include "fi/injector.hpp"

namespace epea::fi {

unsigned flip_width(const runtime::Simulator& sim, const Injection& inj) {
    switch (inj.kind) {
        case Injection::Kind::kSignal:
            return sim.signals().width(inj.signal);
        case Injection::Kind::kModuleInput: {
            const auto& inputs = sim.system().module(inj.module).inputs;
            return inj.port < inputs.size() ? sim.system().signal(inputs[inj.port]).width
                                            : 1U;
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
            if (inj.port >= frame.size()) continue;
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
