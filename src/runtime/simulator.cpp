#include "runtime/simulator.hpp"

#include <stdexcept>

#include "obs/trace.hpp"

namespace epea::runtime {

Simulator::Simulator(const model::SystemModel& model,
                     std::vector<std::unique_ptr<ModuleBehaviour>> behaviours,
                     Environment& env)
    : model_(&model), behaviours_(std::move(behaviours)), env_(&env), store_(model) {
    if (behaviours_.size() != model.module_count()) {
        throw std::invalid_argument("Simulator: behaviour count != module count");
    }
    frames_.resize(model.module_count());
    for (const model::ModuleId mid : model.all_modules()) {
        const auto& spec = model.module(mid);
        Frame& f = frames_[mid.index()];
        f.inputs = spec.inputs;
        f.outputs = spec.outputs;
        f.words.assign(spec.inputs.size(), 0U);
        f.widths.reserve(spec.inputs.size());
        for (const model::SignalId sid : spec.inputs) {
            f.widths.push_back(model.signal(sid).width);
        }
        // Register the frame words as the module's stack area: a copy of
        // the arguments pushed for each invocation.
        for (std::size_t p = 0; p < f.words.size(); ++p) {
            memory_.register_word(Region::kStack, mid,
                                  spec.name + ".arg_" + model.signal_name(f.inputs[p]),
                                  &f.words[p], f.widths[p]);
        }
    }
    for (const model::ModuleId mid : model.all_modules()) {
        InitContext ctx{mid, memory_};
        behaviours_[mid.index()]->init(ctx);
    }
}

void Simulator::enable_trace(bool on) {
    if (on && !trace_) {
        trace_ = std::make_unique<Trace>(model_->signal_count());
    } else if (!on) {
        trace_.reset();
    }
}

void Simulator::reset() {
    now_ = 0;
    store_.reset();
    for (auto& f : frames_) {
        for (auto& w : f.words) w = 0U;
    }
    for (auto& b : behaviours_) b->reset();
    for (auto* m : monitors_) m->reset();
    for (auto* r : recoverers_) r->reset();
    env_->reset();
    if (trace_) trace_->clear();
}

void Simulator::load_frames() noexcept {
    for (auto& f : frames_) {
        for (std::size_t p = 0; p < f.words.size(); ++p) {
            f.words[p] = store_.get(f.inputs[p]);
        }
    }
}

void Simulator::step_tick() { step_tick(std::span<const BatchFlip>{}); }

void Simulator::step_tick(std::span<const BatchFlip> flips) {
    env_->sense(store_, now_);
    if (pre_frame_hook_) pre_frame_hook_(*this, now_);
    for (const BatchFlip& flip : flips) {
        if (flip.point == BatchFlip::Point::kSignal) {
            store_.flip_bit(flip.signal, flip.bit);
        }
    }
    load_frames();
    if (hook_) hook_(*this, now_);
    for (const BatchFlip& flip : flips) {
        if (flip.point == BatchFlip::Point::kFrame) {
            Frame& f = frames_[flip.module.index()];
            if (flip.port < f.words.size()) {
                f.words[flip.port] = util::flip_bit(f.words[flip.port], flip.bit,
                                                    f.widths[flip.port]);
            }
        } else if (flip.point == BatchFlip::Point::kMemory) {
            memory_.flip_bit(flip.word_index, flip.bit);
        }
    }
    // Frames are indexed like modules, which run in declaration order.
    for (std::size_t m = 0; m < frames_.size(); ++m) {
        Frame& f = frames_[m];
        ModuleContext ctx{f.words, f.widths, f.outputs, store_, now_};
        behaviours_[m]->step(ctx);
    }
    for (auto* m : monitors_) m->observe(store_, now_);
    for (auto* r : recoverers_) r->repair(store_, now_);
    if (trace_) trace_->record(store_);
    env_->actuate(store_, now_);
    ++now_;
}

void Simulator::capture_snapshot(Snapshot& out) const {
    out.clear();
    out.tick = now_;
    out.signals = store_.raw_values();
    out.memory.reserve(memory_.word_count());
    for (const MemWord& w : memory_.words()) out.memory.push_back(*w.word);
    {
        StateWriter w(out.behaviours);
        for (const auto& b : behaviours_) b->save_state(w);
    }
    {
        StateWriter w(out.environment);
        env_->save_state(w);
    }
    {
        StateWriter w(out.monitors);
        for (const auto* m : monitors_) m->save_state(w);
    }
    {
        StateWriter w(out.recoverers);
        for (const auto* r : recoverers_) r->save_state(w);
    }
}

void Simulator::restore_snapshot(const Snapshot& snap) {
    if (snap.signals.size() != store_.size() || snap.memory.size() != memory_.word_count()) {
        throw std::invalid_argument("Simulator: snapshot layout does not match this system");
    }
    now_ = snap.tick;
    store_.restore_values(snap.signals);
    for (std::size_t i = 0; i < snap.memory.size(); ++i) {
        *memory_.word(i).word = snap.memory[i];
    }
    {
        StateReader r(snap.behaviours);
        for (auto& b : behaviours_) b->restore_state(r);
        if (!r.exhausted()) {
            throw std::runtime_error("Simulator: behaviour snapshot section not consumed");
        }
    }
    {
        StateReader r(snap.environment);
        env_->restore_state(r);
        if (!r.exhausted()) {
            throw std::runtime_error("Simulator: environment snapshot section not consumed");
        }
    }
    {
        StateReader r(snap.monitors);
        for (auto* m : monitors_) m->restore_state(r);
        if (!r.exhausted()) {
            throw std::runtime_error("Simulator: monitor snapshot section not consumed");
        }
    }
    {
        StateReader r(snap.recoverers);
        for (auto* rec : recoverers_) rec->restore_state(r);
        if (!r.exhausted()) {
            throw std::runtime_error("Simulator: recoverer snapshot section not consumed");
        }
    }
}

RunResult Simulator::run(Tick max_ticks) {
    EPEA_OBS_SAMPLED_SPAN(span, "sim.run");
    RunResult result;
    while (now_ < max_ticks) {
        step_tick();
        if (env_->finished()) {
            result.env_finished = true;
            break;
        }
    }
    result.ticks = now_;
    return result;
}

}  // namespace epea::runtime
