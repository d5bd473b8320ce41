#include "fi/batch.hpp"

#include <algorithm>
#include <stdexcept>

#include "fi/comparison.hpp"
#include "obs/trace.hpp"

namespace epea::fi {

runtime::BatchFlip BatchRunner::to_flip(const Injection& inj) noexcept {
    runtime::BatchFlip flip;
    flip.bit = inj.bit;
    switch (inj.kind) {
        case Injection::Kind::kSignal:
            flip.point = runtime::BatchFlip::Point::kSignal;
            flip.signal = inj.signal;
            break;
        case Injection::Kind::kModuleInput:
            flip.point = runtime::BatchFlip::Point::kFrame;
            flip.module = inj.module;
            flip.port = inj.port;
            break;
        case Injection::Kind::kMemoryWord:
            flip.point = runtime::BatchFlip::Point::kMemory;
            flip.word_index = inj.word_index;
            break;
    }
    return flip;
}

std::uint32_t BatchRunner::add_seal_rule(SealRule rule) {
    seal_rules_.push_back(std::move(rule));
    return static_cast<std::uint32_t>(seal_rules_.size() - 1);
}

std::size_t BatchRunner::submit(const Injection& injection, std::uint32_t seal,
                                std::uint64_t seed) {
    if (seal != kNoSeal && seal >= seal_rules_.size()) {
        throw std::invalid_argument("BatchRunner: unknown seal rule handle");
    }
    check_target(*sim_, injection);
    if (injection.period == 0) {
        if (injection.bit == kRandomBit) {
            throw std::invalid_argument("BatchRunner: random bits need a periodic plan");
        }
    } else {
        if (seal != kNoSeal) {
            throw std::invalid_argument("BatchRunner: periodic plans take no seal rule");
        }
        if (mode_ != Mode::kCoverage) {
            throw std::invalid_argument(
                "BatchRunner: periodic plans run in coverage mode");
        }
    }
    const std::size_t ticket = outcomes_.size();
    outcomes_.emplace_back();
    pending_.push_back(Pending{ticket, seal, seed, injection});
    return ticket;
}

void BatchRunner::flush() {
    if (pending_.empty()) return;
    if (!golden_) throw std::runtime_error("BatchRunner: flush without golden data");
    if (!golden_->has_snapshots() || !sim_->snapshot_supported()) {
        replay_pending();
        return;
    }
    EPEA_OBS_SAMPLED_SPAN(span, "fi.batch_flush");
    const runtime::Tick len = golden_->run.length;
    const std::size_t signal_count = golden_->run.trace.signal_count();
    // One-shot lanes fork from the stride boundaries and read the end
    // state `last`; periodic lanes need only the reset state, boundary[0]
    // (reset-only data, see capture_reset_data).
    const bool stride_boundaries =
        golden_->boundary.size() == len / kPruneCheckPeriod + 1 && golden_->last.tick == len;

    // Group by injection tick: lanes of one batch fork from nearby
    // boundary snapshots, so the sweep's tick span — and with it the
    // idle-lane waste — stays small. Stable order keeps equal-t0 lanes
    // in submission order.
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const Pending& a, const Pending& b) { return a.inj.at < b.inj.at; });

    // Injections at or beyond the golden end never fire: the run equals
    // the golden run outright.
    std::vector<Pending> live;
    std::vector<Pending> periodic;
    live.reserve(pending_.size());
    for (const Pending& p : pending_) {
        if (p.inj.period != 0) {
            periodic.push_back(p);
            continue;
        }
        if (!stride_boundaries) {
            throw std::logic_error(
                "BatchRunner: one-shot plans need golden boundaries at the prune stride");
        }
        if (p.inj.at < len) {
            live.push_back(p);
            continue;
        }
        BatchOutcome& out = outcomes_[p.ticket];
        out.fired = false;
        out.end_tick = len;
        out.finished = golden_->run.finished;
        out.pruned = false;
        if (mode_ == Mode::kPermeability) {
            out.first_diff.assign(signal_count, runtime::kInvalidTick);
        } else {
            out.monitors = golden_->last.monitors;
            out.environment = golden_->last.environment;
        }
        ++stats_.skipped_runs;
        stats_.ticks_saved += len;
    }
    pending_.clear();

    // The simulator's trace is per-run history the batch path never
    // materializes (permeability consumes online first-diffs, coverage
    // consumes monitor state); disable recording while lanes multiplex
    // through the scalar backend.
    const bool had_trace = sim_->trace() != nullptr;
    sim_->enable_trace(false);

    const std::size_t width = effective_width();
    for (std::size_t first = 0; first < live.size(); first += width) {
        run_batch(live.data() + first, std::min(width, live.size() - first),
                  /*periodic=*/false);
    }
    for (std::size_t first = 0; first < periodic.size(); first += width) {
        run_batch(periodic.data() + first, std::min(width, periodic.size() - first),
                  /*periodic=*/true);
    }

    sim_->enable_trace(had_trace);
}

void BatchRunner::replay_pending() {
    const bool perm = mode_ == Mode::kPermeability;
    // Permeability reads first differences off the replayed trace;
    // coverage reads only the monitor and environment state.
    const bool had_trace = sim_->trace() != nullptr;
    sim_->enable_trace(perm);
    for (const Pending& p : pending_) {
        const runtime::RunResult rr =
            replay(*sim_, *injector_, {p.inj}, golden_->max_ticks, p.seed, stats_);
        BatchOutcome& out = outcomes_[p.ticket];
        out.fired = injector_->fired_count() > 0;
        out.end_tick = rr.ticks;
        out.finished = rr.env_finished;
        out.pruned = false;
        if (perm) {
            out.first_diff = first_value_differences(golden_->run, *sim_->trace());
        } else {
            out.monitors.clear();
            runtime::StateWriter w(out.monitors);
            for (const runtime::SignalMonitor* m : sim_->monitors()) m->save_state(w);
            out.environment.clear();
            runtime::StateWriter e(out.environment);
            sim_->environment().save_state(e);
        }
    }
    // An armed injector would also fire into later lanes (its hooks run
    // under the batch backend too).
    injector_->disarm();
    pending_.clear();
    sim_->enable_trace(had_trace);
}

void BatchRunner::run_batch(const Pending* batch, std::size_t count, bool periodic) {
    const runtime::Tick max_ticks = golden_->max_ticks;
    const runtime::Tick len = golden_->run.length;
    const auto& boundary = golden_->boundary;
    const runtime::Trace& gtrace = golden_->run.trace;
    const std::size_t signal_count = gtrace.signal_count();
    const std::size_t W = count;
    const bool perm = mode_ == Mode::kPermeability;

    state_.reset(runtime::SnapshotLayout::of(boundary[0]), W);
    runtime::BatchBackend* backend = sim_->batch_backend();
    if (!backend || !backend->begin(state_)) {
        if (!fallback_) fallback_ = std::make_unique<runtime::ScalarLaneBackend>(*sim_);
        backend = fallback_.get();
        if (!backend->begin(state_)) {
            throw std::runtime_error("BatchRunner: no usable batch backend");
        }
    }
    stats_.record_batch_width(W);

    lanes_.assign(W, Lane{});
    schedule_.resize(W);  // each lane sets its own at activation
    mismatch_.assign(W, 0);
    if (perm) {
        first_diff_.assign(signal_count * W, runtime::kInvalidTick);
        fd_new_.assign(W, 0);
    }

    // Golden signal rows as raw pointers — the scan below touches them
    // once per signal per tick.
    std::vector<const std::uint32_t*> gsig(signal_count);
    for (std::size_t s = 0; s < signal_count; ++s) {
        gsig[s] = gtrace.series(model::SignalId{static_cast<std::uint32_t>(s)}).data();
    }

    // Periodic lanes run from the reset state; a one-shot lane forks from
    // the last stride boundary at or before its injection tick.
    const auto fork_tick = [periodic](const Pending& p) {
        return periodic ? runtime::Tick{0} : p.inj.at / kPruneCheckPeriod * kPruneCheckPeriod;
    };
    std::size_t next = 0;
    runtime::Tick t = fork_tick(batch[0]);
    while (state_.live() > 0 || next < W) {
        if (state_.live() == 0) t = fork_tick(batch[next]);  // jump over dead span
        while (next < W && fork_tick(batch[next]) <= t) {
            const Pending& p = batch[next];
            const runtime::Tick t0 = fork_tick(p);
            const std::size_t lane = state_.activate(boundary[t0 / kPruneCheckPeriod]);
            lanes_[lane] = Lane{p.ticket, t0, p.seal};
            const unsigned random_width =
                p.inj.bit == kRandomBit ? flip_width(*sim_, p.inj) : 0U;
            schedule_[lane] = Schedule{p.inj.at, p.inj.period, to_flip(p.inj),
                                       random_width, util::Rng(p.seed), false};
            if (perm) {
                for (std::size_t s = 0; s < signal_count; ++s) {
                    first_diff_[s * W + lane] = runtime::kInvalidTick;
                }
            }
            ++stats_.lanes_launched;
            if (t0 == 0) {
                ++stats_.full_runs;
            } else {
                ++stats_.forked_runs;
                stats_.ticks_saved += t0;
            }
            ++next;
        }

        launch_due(t);
        backend->step(state_, t);
        state_.clear_launches();
        const runtime::Tick k = t + 1;
        const std::size_t live = state_.live();

        if (!periodic && t < len) {
            // Post-step signals are trace row `t`. One pass computes the
            // prune prefilter (all signals golden) and — in permeability
            // mode — the online per-signal first differences.
            std::fill(mismatch_.begin(), mismatch_.begin() + static_cast<long>(live), 0);
            if (perm) {
                std::fill(fd_new_.begin(), fd_new_.begin() + static_cast<long>(live), 0);
            }
            for (std::size_t s = 0; s < signal_count; ++s) {
                const std::uint32_t g = gsig[s][t];
                const std::uint32_t* row = state_.signals_row(s);
                if (perm) {
                    runtime::Tick* fd = first_diff_.data() + s * W;
                    for (std::size_t lane = 0; lane < live; ++lane) {
                        if (row[lane] != g) {
                            mismatch_[lane] = 1;
                            if (fd[lane] == runtime::kInvalidTick) {
                                fd[lane] = t;
                                fd_new_[lane] = 1;
                            }
                        }
                    }
                } else {
                    for (std::size_t lane = 0; lane < live; ++lane) {
                        if (row[lane] != g) mismatch_[lane] = 1;
                    }
                }
            }
        }

        for (std::size_t lane = 0; lane < state_.live();) {
            if (state_.finished(lane)) {
                retire_lane(lane, k, /*finished=*/true, /*pruned=*/false);
            } else if (k >= max_ticks) {
                retire_lane(lane, k, /*finished=*/false, /*pruned=*/false);
            } else if (perm && fd_new_[lane] != 0 && seal_decided(lane)) {
                // A seal can only become decided on a tick that records a
                // new first diff for the lane — fd_new_ gates the check.
                // Every first-diff fact the consumer's attribution rule
                // reads is recorded and final (future diffs land at
                // >= k+1, strictly after the decisive ones) — the
                // outcome can no longer change. See SealRule.
                retire_lane(lane, k, /*finished=*/false, /*pruned=*/false,
                            /*sealed=*/true);
            } else if (!periodic && k < len && mismatch_[lane] == 0 &&
                       k % kPruneCheckPeriod == 0 &&
                       state_.lane_equals(lane, boundary[k / kPruneCheckPeriod])) {
                // Converged: the lane's remaining evolution is the golden
                // run's — the kernel is deterministic, so equal state
                // implies an equal future. A lane forks less than
                // kPruneCheckPeriod ticks before its flip, so its first
                // check already follows the launch.
                retire_lane(lane, k, golden_->run.finished, /*pruned=*/true);
            } else if (perm && k >= len) {
                // Attribution only reads the common trace prefix, which
                // ends here — the outcome is sealed.
                retire_lane(lane, k, /*finished=*/false, /*pruned=*/false);
            } else {
                ++lane;
                continue;
            }
            // The retired slot now holds the previously-last lane (or is
            // dead); re-examine the same index.
        }
        ++t;
    }
}

void BatchRunner::launch_due(runtime::Tick now) {
    for (std::size_t lane = 0; lane < state_.live(); ++lane) {
        Schedule& sched = schedule_[lane];
        if (sched.next != now) continue;
        runtime::BatchFlip flip = sched.flip;
        if (sched.random_width != 0) {
            flip.bit = static_cast<unsigned>(sched.rng.below(sched.random_width));
        }
        state_.set_launch(lane, flip);
        // A one-shot schedule (period 0) stays in the past: it fires once.
        sched.next += sched.period;
        sched.fired = true;
    }
}

bool BatchRunner::seal_decided(std::size_t lane) const noexcept {
    const std::uint32_t seal = lanes_[lane].seal;
    if (seal == kNoSeal) return false;
    const SealRule& rule = seal_rules_[seal];
    const std::size_t W = state_.width();
    const runtime::Tick* fd = first_diff_.data();
    for (const model::SignalId s : rule.any_of) {
        if (fd[s.index() * W + lane] != runtime::kInvalidTick) return true;
    }
    if (rule.all_of.empty()) return false;
    for (const model::SignalId s : rule.all_of) {
        if (fd[s.index() * W + lane] == runtime::kInvalidTick) return false;
    }
    return true;
}

void BatchRunner::retire_lane(std::size_t lane, runtime::Tick end, bool finished,
                              bool pruned, bool sealed) {
    const runtime::Tick len = golden_->run.length;
    const std::size_t W = state_.width();
    const std::size_t signal_count = golden_->run.trace.signal_count();
    const Lane meta = lanes_[lane];

    BatchOutcome& out = outcomes_[meta.ticket];
    out.fired = schedule_[lane].fired;
    out.pruned = pruned;
    stats_.ticks_executed += end - meta.t0;
    if (pruned) {
        out.end_tick = len;
        out.finished = finished;
        stats_.ticks_saved += len - end;
        ++stats_.pruned_runs;
        ++stats_.lanes_retired_pruned;
    } else if (sealed) {
        out.end_tick = end;
        out.finished = finished;
        // Without the seal the lane would have run on to the golden end
        // (permeability lanes retire there at the latest).
        if (end < len) stats_.ticks_saved += len - end;
        ++stats_.lanes_retired_sealed;
    } else {
        out.end_tick = end;
        out.finished = finished;
        ++stats_.lanes_retired_end;
    }
    if (mode_ == Mode::kPermeability) {
        out.first_diff.resize(signal_count);
        for (std::size_t s = 0; s < signal_count; ++s) {
            out.first_diff[s] = first_diff_[s * W + lane];
        }
    } else if (pruned) {
        out.monitors = golden_->last.monitors;
        out.environment = golden_->last.environment;
    } else {
        state_.extract_monitors(lane, out.monitors);
        out.environment.resize(state_.layout().environment);
        for (std::size_t w = 0; w < out.environment.size(); ++w) {
            out.environment[w] = state_.environment_row(w)[lane];
        }
    }

    const std::size_t last = state_.retire(lane);
    if (lane != last) {
        lanes_[lane] = lanes_[last];
        mismatch_[lane] = mismatch_[last];
        schedule_[lane] = schedule_[last];
        if (mode_ == Mode::kPermeability) {
            fd_new_[lane] = fd_new_[last];
            for (std::size_t s = 0; s < signal_count; ++s) {
                first_diff_[s * W + lane] = first_diff_[s * W + last];
            }
        }
    }
}

}  // namespace epea::fi
