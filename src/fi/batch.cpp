#include "fi/batch.hpp"

#include <algorithm>
#include <bit>
#include <functional>
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

    // Sweep in injection-tick order: a lane takes a slot at its fork
    // tick, so lanes that fork close together run side by side. Stable
    // order keeps equal-tick lanes in submission order.
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

    // Signal masks: one bit per signal, in 64-bit words. Reset-only data
    // has no trace, and its periodic lanes read no masks.
    signals_ = signal_count;
    mask_words_ = (signal_count + 63) / 64;
    seal_masks_.assign(seal_rules_.size() * 2 * mask_words_, 0);
    const auto set_bits = [signal_count](std::uint64_t* mask,
                                         const std::vector<model::SignalId>& signals) {
        for (const model::SignalId s : signals) {
            if (s.index() < signal_count) mask[s.index() / 64] |= std::uint64_t{1} << (s.index() % 64);
        }
    };
    for (std::size_t r = 0; r < seal_rules_.size(); ++r) {
        set_bits(seal_masks_.data() + r * 2 * mask_words_, seal_rules_[r].any_of);
        set_bits(seal_masks_.data() + (r * 2 + 1) * mask_words_, seal_rules_[r].all_of);
    }
    golden_rows_.resize(signal_count);
    for (std::size_t s = 0; s < signal_count; ++s) {
        golden_rows_[s] =
            golden_->run.trace.series(model::SignalId{static_cast<std::uint32_t>(s)}).data();
    }
    exits_.resize(outcomes_.size());

    // The simulator's trace is per-run history the batch path never
    // materializes (permeability consumes online first-diffs, coverage
    // consumes monitor state); disable recording while lanes multiplex
    // through the scalar backend.
    const bool had_trace = sim_->trace() != nullptr;
    sim_->enable_trace(false);

    const std::size_t first_merge = merges_.size();
    while (!live.empty()) run_sweep(live, /*periodic=*/false);
    while (!periodic.empty()) run_sweep(periodic, /*periodic=*/true);
    resolve_merges(first_merge);

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

void BatchRunner::run_sweep(std::vector<Pending>& queue, bool periodic) {
    const runtime::Tick max_ticks = golden_->max_ticks;
    const runtime::Tick len = golden_->run.length;
    const auto& boundary = golden_->boundary;
    const std::size_t W = std::min(effective_width(), queue.size());
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

    lanes_.assign(W, Lane{});
    schedule_.resize(W);  // each lane sets its own at activation
    mismatch_.assign(W, 0);
    fd_new_.assign(W, 0);
    first_diff_.assign(signals_ * W, runtime::kInvalidTick);
    pending_mask_.assign(mask_words_ * W, 0);
    diff_.assign(mask_words_ * W, 0);

    // Periodic lanes run from the reset state; a one-shot lane forks from
    // the last stride boundary at or before its injection tick.
    const auto fork_tick = [periodic](const Pending& p) {
        return periodic ? runtime::Tick{0} : p.inj.at / kPruneCheckPeriod * kPruneCheckPeriod;
    };
    deferred_.clear();
    unfired_ = 0;
    std::size_t next = 0;
    std::size_t launched = 0;
    runtime::Tick t = fork_tick(queue[0]);
    while (state_.live() > 0 || next < queue.size()) {
        if (state_.live() == 0) t = fork_tick(queue[next]);  // jump over dead span
        for (; next < queue.size() && fork_tick(queue[next]) <= t; ++next) {
            const Pending& p = queue[next];
            if (state_.live() == W) {
                deferred_.push_back(p);  // every slot busy: a later sweep runs it
                continue;
            }
            const runtime::Tick t0 = fork_tick(p);
            const std::size_t lane = state_.activate(boundary[t0 / kPruneCheckPeriod]);
            lanes_[lane] = Lane{p.ticket, t0, p.seal};
            const unsigned random_width =
                p.inj.bit == kRandomBit ? flip_width(*sim_, p.inj) : 0U;
            schedule_[lane] = Schedule{p.inj.at, p.inj.period, to_flip(p.inj),
                                       random_width, util::Rng(p.seed), false};
            std::fill_n(first_diff_.begin() + static_cast<long>(lane * signals_), signals_,
                        runtime::kInvalidTick);
            std::uint64_t* pend = pending_mask_.data() + lane * mask_words_;
            for (std::size_t w = 0; w < mask_words_; ++w) {
                const std::size_t bits = std::min<std::size_t>(64, signals_ - 64 * w);
                pend[w] = bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
            }
            ++unfired_;
            ++launched;
            ++stats_.lanes_launched;
            if (t0 == 0) {
                ++stats_.full_runs;
            } else {
                ++stats_.forked_runs;
                stats_.ticks_saved += t0;
            }
        }

        // One-shot lanes launch within kPruneCheckPeriod ticks of their
        // fork; most ticks have no schedule to scan.
        if (unfired_ > 0) launch_due(t);
        backend->step(state_, t);
        if (state_.launch_count() != 0) state_.clear_launches();
        const runtime::Tick k = t + 1;

        // Post-step signals are trace row `t`.
        if (!periodic && t < len) scan_signals(t);

        for (std::size_t lane = 0; lane < state_.live();) {
            if (state_.finished(lane)) {
                retire_lane(lane, k, Exit::kFinished);
            } else if (k >= max_ticks) {
                retire_lane(lane, k, Exit::kBudget);
            } else if (perm && fd_new_[lane] != 0 && seal_decided(lane)) {
                // A seal can only become decided on a tick that records a
                // new first diff for the lane — fd_new_ gates the check.
                // Every first-diff fact the consumer's attribution rule
                // reads is recorded and final (future diffs land at
                // >= k+1, strictly after the decisive ones) — the
                // outcome can no longer change. See SealRule.
                retire_lane(lane, k, Exit::kSealed);
            } else if (!periodic && k < len && mismatch_[lane] == 0 &&
                       k % kPruneCheckPeriod == 0 &&
                       state_.lane_equals(lane, boundary[k / kPruneCheckPeriod])) {
                // Converged: the lane's remaining evolution is the golden
                // run's — the kernel is deterministic, so equal state
                // implies an equal future. A lane forks less than
                // kPruneCheckPeriod ticks before its flip, so its first
                // check already follows the launch.
                retire_lane(lane, k, Exit::kPruned);
            } else if (perm && k >= len) {
                // Attribution only reads the common trace prefix, which
                // ends here — the outcome is sealed.
                retire_lane(lane, k, Exit::kEnd);
            } else {
                ++lane;
                continue;
            }
            // The retired slot now holds the previously-last lane (or is
            // dead); re-examine the same index.
        }
        if (!periodic && k % kMergeCheckPeriod == 0 && state_.live() > 1) merge_lanes(k);
        ++t;
    }
    stats_.record_batch_width(launched);
    queue.swap(deferred_);
}

void BatchRunner::scan_signals(runtime::Tick t) {
    const std::size_t W = state_.width();
    const std::size_t live = state_.live();
    // Branch-free pass: one diff bit per signal per lane.
    for (std::size_t w = 0; w < mask_words_; ++w) {
        std::fill_n(diff_.begin() + static_cast<long>(w * W), live, 0);
    }
    for (std::size_t s = 0; s < signals_; ++s) {
        const std::uint32_t g = golden_rows_[s][t];
        const std::uint32_t* row = state_.signals_row(s);
        std::uint64_t* d = diff_.data() + (s / 64) * W;
        const unsigned bit = s % 64;
        for (std::size_t lane = 0; lane < live; ++lane) {
            d[lane] |= static_cast<std::uint64_t>(row[lane] != g) << bit;
        }
    }
    // New first diffs are diff & pending — rare, handled apart.
    const bool perm = mode_ == Mode::kPermeability;
    for (std::size_t lane = 0; lane < live; ++lane) {
        std::uint64_t any = 0;
        std::uint8_t fresh = 0;
        for (std::size_t w = 0; w < mask_words_; ++w) {
            const std::uint64_t d = diff_[w * W + lane];
            any |= d;
            std::uint64_t& pend = pending_mask_[lane * mask_words_ + w];
            std::uint64_t x = perm ? d & pend : 0;
            if (x == 0) continue;
            pend &= ~x;
            fresh = 1;
            runtime::Tick* fd = first_diff_.data() + lane * signals_ + 64 * w;
            for (; x != 0; x &= x - 1) fd[std::countr_zero(x)] = t;
        }
        mismatch_[lane] = any != 0 ? 1 : 0;
        fd_new_[lane] = fresh;
    }
}

void BatchRunner::merge_lanes(runtime::Tick k) {
    const std::size_t live = state_.live();
    // Hash the signal, memory and environment rows of every live lane,
    // word-major like the kernel, in 32 bits the lane loop vectorizes.
    // The exact compare below spans all six sections, so the hash only
    // has to bring equal states together.
    hash_.assign(live, 0x811c9dc5U);
    const auto mix = [this, live](const auto* row) {
        for (std::size_t lane = 0; lane < live; ++lane) {
            std::uint64_t w = row[lane];
            w ^= w >> 32;
            hash_[lane] = (hash_[lane] ^ static_cast<std::uint32_t>(w)) * 0x9e3779b1U;
        }
    };
    const runtime::SnapshotLayout& layout = state_.layout();
    for (std::size_t w = 0; w < layout.signals; ++w) mix(state_.signals_row(w));
    for (std::size_t w = 0; w < layout.memory; ++w) mix(state_.memory_row(w));
    for (std::size_t w = 0; w < layout.environment; ++w) mix(state_.environment_row(w));

    // Candidates: fired lanes at least kMergeCheckPeriod ticks past their
    // fork, sorted by (seal, hash) and, within equal keys, by pending
    // signal count descending — the likeliest leader first.
    candidates_.clear();
    for (std::size_t lane = 0; lane < live; ++lane) {
        if (!schedule_[lane].fired || lanes_[lane].t0 + kMergeCheckPeriod > k) continue;
        std::uint64_t recorded = 0;
        for (std::size_t w = 0; w < mask_words_; ++w) {
            recorded += static_cast<std::uint64_t>(
                std::popcount(~pending_mask_[lane * mask_words_ + w]));
        }
        candidates_.emplace_back(std::uint64_t{lanes_[lane].seal} << 32 | hash_[lane],
                                 recorded << 32 | lane);
    }
    std::sort(candidates_.begin(), candidates_.end());

    // A follower's pending signals must be a subset of its leader's: the
    // follower then diffs every signal it still lacks exactly when the
    // leader does.
    const auto pending_within = [this](std::size_t f, std::size_t l) {
        for (std::size_t w = 0; w < mask_words_; ++w) {
            const std::uint64_t pf = pending_mask_[f * mask_words_ + w];
            if ((pf & ~pending_mask_[l * mask_words_ + w]) != 0) return false;
        }
        return true;
    };
    const auto slot = [](std::uint64_t order) {
        return static_cast<std::size_t>(order & 0xffffffffU);
    };
    followers_.clear();
    for (std::size_t g = 0; g < candidates_.size();) {
        std::size_t end = g + 1;
        while (end < candidates_.size() && candidates_[end].first == candidates_[g].first) ++end;
        // Leaders of the group are the candidates in [g, lead_end) that
        // followed no one; a follower's entry moves past them.
        std::size_t lead_end = g + 1;
        for (std::size_t c = g + 1; c < end; ++c) {
            const std::size_t lane = slot(candidates_[c].second);
            std::size_t leader = g;
            while (leader < lead_end &&
                   !(pending_within(lane, slot(candidates_[leader].second)) &&
                     state_.lanes_equal(lane, slot(candidates_[leader].second)))) {
                ++leader;
            }
            if (leader == lead_end) {
                std::swap(candidates_[lead_end++], candidates_[c]);
                continue;
            }
            const std::size_t lead = slot(candidates_[leader].second);
            merges_.push_back(Merge{lanes_[lane].ticket, lanes_[lead].ticket, k});
            merge_seals_.push_back(lanes_[lane].seal);
            const auto fd = first_diff_.begin() + static_cast<long>(lane * signals_);
            merge_first_diff_.insert(merge_first_diff_.end(), fd,
                                     fd + static_cast<long>(signals_));
            stats_.ticks_executed += k - lanes_[lane].t0;
            followers_.push_back(lane);
        }
        g = end;
    }
    // Compact from the highest slot down: the lane swapped into a freed
    // slot then always comes from above it and is not a follower.
    std::sort(followers_.begin(), followers_.end(), std::greater<>());
    for (const std::size_t lane : followers_) drop_lane(lane);
}

void BatchRunner::resolve_merges(std::size_t first) {
    // Latest merge first: a leader that later followed another lane has
    // its own outcome resolved before its followers read it.
    const runtime::Tick len = golden_->run.length;
    for (std::size_t m = merges_.size(); m-- > first;) {
        const Merge& mg = merges_[m];
        const Retired lead = exits_[mg.leader];
        const BatchOutcome& lo = outcomes_[mg.leader];
        BatchOutcome& out = outcomes_[mg.follower];
        Retired exit = lead;
        if (mode_ == Mode::kPermeability) {
            // Own diffs before the merge, the leader's (all >= mg.at) after.
            const auto own = merge_first_diff_.begin() + static_cast<long>(m * signals_);
            out.first_diff.assign(own, own + static_cast<long>(signals_));
            for (std::size_t s = 0; s < signals_; ++s) {
                if (out.first_diff[s] == runtime::kInvalidTick) {
                    out.first_diff[s] = lo.first_diff[s];
                }
            }
            // The follower's own seal decides no later than the leader's
            // (same rule, fewer pending signals). It retires first unless
            // the leader finished or hit the budget on that very tick —
            // those checks come before the seal's.
            const std::uint32_t seal = merge_seals_[m];
            const runtime::Tick d = seal == kNoSeal
                                        ? runtime::kInvalidTick
                                        : seal_tick(seal_rules_[seal], out.first_diff);
            if (d != runtime::kInvalidTick &&
                (d + 1 < lead.k ||
                 (d + 1 == lead.k && lead.why != Exit::kFinished && lead.why != Exit::kBudget))) {
                exit = Retired{d + 1, Exit::kSealed};
                for (runtime::Tick& fd : out.first_diff) {
                    if (fd > d) fd = runtime::kInvalidTick;
                }
            }
            out.fired = true;
            out.pruned = exit.why == Exit::kPruned;
            out.finished = exit.why == Exit::kFinished ||
                           (out.pruned && golden_->run.finished);
            out.end_tick = out.pruned ? len : exit.k;
        } else {
            // Coverage outcomes are the run's end state: the leader's.
            out = lo;
        }
        exits_[mg.follower] = exit;
        ++stats_.lanes_retired_merged;
        if (exit.why == Exit::kPruned) ++stats_.pruned_runs;
        // The follower's ticks from the merge to its own retirement were
        // not simulated, and nor are those its retirement saves.
        stats_.ticks_saved += exit.k - mg.at + ticks_saved_after(exit);
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
        if (sched.period == 0) --unfired_;
        sched.fired = true;
    }
}

bool BatchRunner::seal_decided(std::size_t lane) const noexcept {
    const std::uint32_t seal = lanes_[lane].seal;
    if (seal == kNoSeal) return false;
    const std::uint64_t* any = seal_masks_.data() + seal * 2 * mask_words_;
    const std::uint64_t* all = any + mask_words_;
    const std::uint64_t* pend = pending_mask_.data() + lane * mask_words_;
    for (std::size_t w = 0; w < mask_words_; ++w) {
        if ((any[w] & ~pend[w]) != 0) return true;
    }
    if (seal_rules_[seal].all_of.empty()) return false;
    for (std::size_t w = 0; w < mask_words_; ++w) {
        if ((all[w] & pend[w]) != 0) return false;
    }
    return true;
}

runtime::Tick BatchRunner::seal_tick(const SealRule& rule,
                                     const std::vector<runtime::Tick>& first_diff) {
    // Any witness decides at its first diff; all outputs at the last of
    // theirs. kInvalidTick (never) is the largest Tick.
    runtime::Tick d = runtime::kInvalidTick;
    for (const model::SignalId s : rule.any_of) d = std::min(d, first_diff[s.index()]);
    if (!rule.all_of.empty()) {
        runtime::Tick last = 0;
        for (const model::SignalId s : rule.all_of) last = std::max(last, first_diff[s.index()]);
        d = std::min(d, last);
    }
    return d;
}

void BatchRunner::retire_lane(std::size_t lane, runtime::Tick k, Exit why) {
    const Lane meta = lanes_[lane];
    const bool pruned = why == Exit::kPruned;
    BatchOutcome& out = outcomes_[meta.ticket];
    exits_[meta.ticket] = Retired{k, why};
    out.fired = schedule_[lane].fired;
    out.pruned = pruned;
    // A pruned lane's outcome is the golden run's.
    out.end_tick = pruned ? golden_->run.length : k;
    out.finished = why == Exit::kFinished || (pruned && golden_->run.finished);
    stats_.ticks_executed += k - meta.t0;
    stats_.ticks_saved += ticks_saved_after(Retired{k, why});
    switch (why) {
        case Exit::kPruned:
            ++stats_.pruned_runs;
            ++stats_.lanes_retired_pruned;
            break;
        case Exit::kSealed:
            ++stats_.lanes_retired_sealed;
            break;
        default:
            ++stats_.lanes_retired_end;
            break;
    }
    if (mode_ == Mode::kPermeability) {
        const auto fd = first_diff_.begin() + static_cast<long>(lane * signals_);
        out.first_diff.assign(fd, fd + static_cast<long>(signals_));
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
    drop_lane(lane);
}

runtime::Tick BatchRunner::ticks_saved_after(const Retired& r) const noexcept {
    // Without the prune or the seal the lane would have run on to the
    // golden end (permeability lanes retire there at the latest).
    const runtime::Tick len = golden_->run.length;
    const bool early = r.why == Exit::kPruned || r.why == Exit::kSealed;
    return early && r.k < len ? len - r.k : 0;
}

void BatchRunner::drop_lane(std::size_t lane) {
    if (schedule_[lane].period != 0 || !schedule_[lane].fired) --unfired_;
    const std::size_t last = state_.retire(lane);
    if (lane == last) return;
    lanes_[lane] = lanes_[last];
    schedule_[lane] = schedule_[last];
    mismatch_[lane] = mismatch_[last];
    fd_new_[lane] = fd_new_[last];
    std::copy_n(first_diff_.begin() + static_cast<long>(last * signals_), signals_,
                first_diff_.begin() + static_cast<long>(lane * signals_));
    std::copy_n(pending_mask_.begin() + static_cast<long>(last * mask_words_), mask_words_,
                pending_mask_.begin() + static_cast<long>(lane * mask_words_));
}

}  // namespace epea::fi
