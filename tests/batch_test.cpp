// BatchRunner unit tests (DESIGN.md §9): lane retirement by
// convergence-prune, by the golden end, and by attribution seal; skips
// for injections at/after the golden end; width independence; outcome
// equivalence against replay for one-shot plans forked at the stride
// floor and for periodic plans, on the fused kernel and on the scalar
// lane backend; a fused-kernel lane against the scalar simulator's whole
// state after every tick; the stride-boundary shape of captured golden
// data; the rejection of plans that target what the system does not
// have; and the reference path taken for snapshot-free goldens and
// targets that cannot snapshot.
// Campaign-scale engine-vs-replay proofs live in
// fastpath_equivalence_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "alt/tank_system.hpp"
#include "exp/arrestment_experiments.hpp"
#include "fi/batch.hpp"
#include "fi/comparison.hpp"
#include "fi/fastpath.hpp"
#include "fi/injection.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "synth/generator.hpp"
#include "target/arrestment_system.hpp"

namespace {

using namespace epea;

/// Replay reference: per-signal first value-difference over the common
/// trace prefix (what the batch kernel records online), plus whether the
/// injection fired.
struct ReplayRef {
    bool fired = false;
    std::vector<runtime::Tick> first_diff;
};

ReplayRef replay_ref(runtime::Simulator& sim, fi::Injector& injector,
                     const fi::GoldenCaseData& golden, const fi::Injection& inj) {
    injector.arm({inj}, /*seed=*/1);
    sim.reset();
    (void)sim.run(golden.max_ticks);
    ReplayRef ref;
    ref.fired = injector.fired_count() > 0;
    const runtime::Trace& ir = *sim.trace();
    const std::size_t n = golden.run.trace.signal_count();
    ref.first_diff.assign(n, runtime::kInvalidTick);
    for (std::size_t s = 0; s < n; ++s) {
        const model::SignalId sid{static_cast<std::uint32_t>(s)};
        const auto d =
            golden.run.trace.first_difference(ir, sid, /*include_length_mismatch=*/false);
        if (d) ref.first_diff[s] = *d;
    }
    injector.disarm();
    return ref;
}

struct BatchFixture {
    target::ArrestmentSystem sys;
    fi::Injector injector{sys.sim()};
    std::shared_ptr<const fi::GoldenCaseData> golden;

    explicit BatchFixture(std::size_t test_case = 3, bool with_snapshots = true) {
        sys.configure(target::standard_test_cases()[test_case]);
        golden = std::make_shared<const fi::GoldenCaseData>(
            fi::capture_golden_data(sys.sim(), target::kMaxRunTicks, with_snapshots));
    }

    [[nodiscard]] fi::BatchRunner make_runner(std::size_t width = 0) {
        fi::BatchRunner batch(sys.sim(), injector);
        batch.set_mode(fi::BatchRunner::Mode::kPermeability);
        batch.set_width(width);
        batch.set_golden(golden);
        return batch;
    }

    [[nodiscard]] ReplayRef replay(const fi::Injection& inj) {
        return replay_ref(sys.sim(), injector, *golden, inj);
    }
};

/// A coverage-mode outcome computed by replay: the state the run leaves
/// in the monitors and the environment.
fi::BatchOutcome coverage_replay(runtime::Simulator& sim, fi::Injector& injector,
                                 const fi::Injection& inj, runtime::Tick max_ticks,
                                 std::uint64_t seed) {
    fi::FastPathStats stats;
    const runtime::RunResult rr =
        fi::replay(sim, injector, {inj}, max_ticks, seed, stats);
    fi::BatchOutcome out;
    out.fired = injector.fired_count() > 0;
    out.end_tick = rr.ticks;
    out.finished = rr.env_finished;
    runtime::StateWriter monitors(out.monitors);
    for (const runtime::SignalMonitor* m : sim.monitors()) m->save_state(monitors);
    runtime::StateWriter environment(out.environment);
    sim.environment().save_state(environment);
    injector.disarm();
    return out;
}

void expect_coverage_equal(const fi::BatchOutcome& lane, const fi::BatchOutcome& ref) {
    EXPECT_EQ(lane.fired, ref.fired);
    EXPECT_EQ(lane.end_tick, ref.end_tick);
    EXPECT_EQ(lane.finished, ref.finished);
    EXPECT_FALSE(lane.pruned);
    EXPECT_EQ(lane.monitors, ref.monitors);
    EXPECT_EQ(lane.environment, ref.environment);
}

/// A broad one-shot plan over every signal: low and high bits, early and
/// mid-run moments — enough variety to exercise prune, golden-end and
/// budget retirements in one batch.
std::vector<fi::Injection> mixed_plan(const model::SystemModel& system,
                                      runtime::Tick len) {
    std::vector<fi::Injection> plan;
    for (const model::SignalId sid : system.all_signals()) {
        const unsigned width = system.signal(sid).width;
        plan.push_back(fi::Injection::into_signal(sid, 0, len / 4));
        plan.push_back(fi::Injection::into_signal(sid, width - 1, len / 2));
    }
    return plan;
}

/// Wraps the fused kernel: counts the lane-ticks whose plant follows the
/// golden run and those that run their own, and before every stride
/// tick's step checks the reference column against the golden boundary's
/// environment words.
class FollowProbe final : public runtime::BatchBackend {
public:
    FollowProbe(runtime::BatchBackend& kernel, const fi::GoldenCaseData& golden)
        : kernel_(&kernel), golden_(&golden) {}

    bool begin(runtime::BatchState& st) override { return kernel_->begin(st); }
    void step(runtime::BatchState& st, runtime::Tick now) override {
        const std::size_t stride = now / fi::kPruneCheckPeriod;
        if (st.followers() > 0 && now % fi::kPruneCheckPeriod == 0 &&
            stride < golden_->boundary.size()) {
            ++column_checks;
            const std::vector<std::uint64_t>& env = golden_->boundary[stride].environment;
            if (!std::equal(st.reference().begin(), st.reference().end(), env.begin(),
                            env.end())) {
                ++column_mismatches;
            }
        }
        follower_ticks += st.followers();
        own_ticks += st.live() - st.followers();
        kernel_->step(st, now);
    }

    std::size_t column_checks = 0;
    std::size_t column_mismatches = 0;
    std::size_t follower_ticks = 0;
    std::size_t own_ticks = 0;

private:
    runtime::BatchBackend* kernel_;
    const fi::GoldenCaseData* golden_;
};

TEST(BatchRunner, OutcomesMatchSlowPathAndLanesPruneMidBatch) {
    BatchFixture fx;
    const runtime::Tick len = fx.golden->run.length;
    const std::vector<fi::Injection> plan = mixed_plan(fx.sys.system(), len);

    fi::BatchRunner batch = fx.make_runner();
    std::vector<std::size_t> tickets;
    for (const fi::Injection& inj : plan) tickets.push_back(batch.submit(inj));
    batch.flush();

    for (std::size_t i = 0; i < plan.size(); ++i) {
        const fi::BatchOutcome& oc = batch.outcome(tickets[i]);
        const ReplayRef ref = fx.replay(plan[i]);
        EXPECT_EQ(oc.fired, ref.fired) << "plan " << i;
        EXPECT_EQ(oc.first_diff, ref.first_diff) << "plan " << i;
        if (oc.pruned) {
            // A pruned lane re-converged with the golden run: its outcome
            // is the golden run's.
            EXPECT_EQ(oc.end_tick, len) << "plan " << i;
            EXPECT_EQ(oc.finished, fx.golden->run.finished) << "plan " << i;
        }
    }
    // The mixed plan exercises both mid-batch retirement kinds: pruned
    // lanes leave the batch while others keep running, and at least one
    // persistent divergence survives to the golden end.
    const fi::FastPathStats& st = batch.stats();
    EXPECT_EQ(st.lanes_launched, plan.size());
    EXPECT_GT(st.lanes_retired_pruned, 0U);
    EXPECT_GT(st.lanes_retired_end, 0U);
    EXPECT_EQ(st.lanes_launched, st.lanes_retired_pruned + st.lanes_retired_end +
                                     st.lanes_retired_sealed);
}

TEST(BatchRunner, InjectionAtOrAfterGoldenEndIsSkipped) {
    BatchFixture fx;
    const runtime::Tick len = fx.golden->run.length;
    const model::SignalId sid = fx.sys.system().all_signals().front();

    fi::BatchRunner batch = fx.make_runner();
    const std::size_t at_end = batch.submit(fi::Injection::into_signal(sid, 0, len));
    const std::size_t beyond =
        batch.submit(fi::Injection::into_signal(sid, 0, len + 1000));
    batch.flush();

    for (const std::size_t ticket : {at_end, beyond}) {
        const fi::BatchOutcome& oc = batch.outcome(ticket);
        EXPECT_FALSE(oc.fired);
        EXPECT_EQ(oc.end_tick, len);
        EXPECT_EQ(oc.finished, fx.golden->run.finished);
        EXPECT_FALSE(oc.pruned);
        // Never fired: no signal ever differed from the golden run.
        for (const runtime::Tick t : oc.first_diff) {
            EXPECT_EQ(t, runtime::kInvalidTick);
        }
    }
    // Skipped before any lane was launched.
    EXPECT_EQ(batch.stats().lanes_launched, 0U);
    EXPECT_EQ(batch.stats().skipped_runs, 2U);
}

TEST(BatchRunner, WidthOneMatchesWideBatch) {
    BatchFixture fx;
    const std::vector<fi::Injection> plan =
        mixed_plan(fx.sys.system(), fx.golden->run.length);

    // Widths 1 (one lane per batch), 7 (odd, several partial batches)
    // and 256 (the auto width: the whole plan in one batch) must agree
    // outcome for outcome.
    std::vector<std::vector<fi::BatchOutcome>> by_width;
    for (const std::size_t width : {std::size_t{1}, std::size_t{7}, std::size_t{256}}) {
        fi::BatchRunner batch = fx.make_runner(width);
        std::vector<std::size_t> tickets;
        for (const fi::Injection& inj : plan) tickets.push_back(batch.submit(inj));
        batch.flush();
        auto& out = by_width.emplace_back();
        for (const std::size_t t : tickets) out.push_back(batch.outcome(t));
    }

    const std::vector<fi::BatchOutcome>& wide = by_width.back();
    for (std::size_t w = 0; w + 1 < by_width.size(); ++w) {
        const std::vector<fi::BatchOutcome>& narrow = by_width[w];
        ASSERT_EQ(wide.size(), narrow.size());
        for (std::size_t i = 0; i < wide.size(); ++i) {
            SCOPED_TRACE("width set " + std::to_string(w) + " plan " + std::to_string(i));
            EXPECT_EQ(wide[i].fired, narrow[i].fired);
            EXPECT_EQ(wide[i].end_tick, narrow[i].end_tick);
            EXPECT_EQ(wide[i].finished, narrow[i].finished);
            EXPECT_EQ(wide[i].pruned, narrow[i].pruned);
            EXPECT_EQ(wide[i].first_diff, narrow[i].first_diff);
        }
    }
}

TEST(BatchRunner, SnapshotFreeGoldenReplaysEveryPlan) {
    // A golden without boundary snapshots (what `--no-batch` captures)
    // sends every plan through replay — same outcomes as the lanes, and
    // no lane is launched.
    BatchFixture lanes_fx;
    BatchFixture replay_fx(3, /*with_snapshots=*/false);
    const std::vector<fi::Injection> plan =
        mixed_plan(lanes_fx.sys.system(), lanes_fx.golden->run.length);

    fi::BatchRunner lanes = lanes_fx.make_runner();
    fi::BatchRunner replay = replay_fx.make_runner();
    std::vector<std::size_t> lane_tickets;
    std::vector<std::size_t> replay_tickets;
    for (const fi::Injection& inj : plan) {
        lane_tickets.push_back(lanes.submit(inj));
        replay_tickets.push_back(replay.submit(inj));
    }
    lanes.flush();
    replay.flush();

    for (std::size_t i = 0; i < plan.size(); ++i) {
        const fi::BatchOutcome& lane = lanes.outcome(lane_tickets[i]);
        const fi::BatchOutcome& ref = replay.outcome(replay_tickets[i]);
        EXPECT_EQ(lane.fired, ref.fired) << "plan " << i;
        EXPECT_EQ(lane.first_diff, ref.first_diff) << "plan " << i;
        EXPECT_FALSE(ref.pruned) << "plan " << i;
        if (lane.finished) {
            EXPECT_EQ(lane.end_tick, ref.end_tick) << "plan " << i;
        }
    }
    EXPECT_EQ(replay.stats().lanes_launched, 0U);
    EXPECT_EQ(replay.stats().full_runs, plan.size());
    EXPECT_EQ(replay.stats().runs(), lanes.stats().runs());
}

TEST(BatchRunner, TargetWithoutSnapshotsTakesReplayExecutor) {
    // The synthetic bitmask chain's environment cannot snapshot. Even
    // handed a golden with boundary entries, the runner must replay.
    synth::BitmaskChainSystem chain({0x00ff, 0xffff});
    fi::Injector injector(chain.sim());
    ASSERT_FALSE(chain.sim().snapshot_supported());
    const auto golden = std::make_shared<const fi::GoldenCaseData>(
        fi::capture_golden_data(chain.sim(), 1024, /*with_snapshots=*/true));
    ASSERT_TRUE(golden->has_snapshots());

    fi::BatchRunner batch(chain.sim(), injector);
    batch.set_mode(fi::BatchRunner::Mode::kPermeability);
    batch.set_golden(golden);
    const model::ModuleId mask0 = chain.system().module_id("mask_0");
    std::vector<fi::Injection> plan;
    for (unsigned bit = 0; bit < 16; ++bit) {
        plan.push_back(fi::Injection::into_module_input(mask0, 0, bit, 10 + bit));
    }
    plan.push_back(fi::Injection::into_module_input(mask0, 0, 3, golden->run.length + 5));
    std::vector<std::size_t> tickets;
    for (const fi::Injection& inj : plan) tickets.push_back(batch.submit(inj));
    batch.flush();

    for (std::size_t i = 0; i < plan.size(); ++i) {
        const ReplayRef ref = replay_ref(chain.sim(), injector, *golden, plan[i]);
        const fi::BatchOutcome& oc = batch.outcome(tickets[i]);
        EXPECT_EQ(oc.fired, ref.fired) << "plan " << i;
        EXPECT_EQ(oc.first_diff, ref.first_diff) << "plan " << i;
    }
    EXPECT_FALSE(batch.outcome(tickets.back()).fired);
    EXPECT_EQ(batch.stats().lanes_launched, 0U);
    EXPECT_EQ(batch.stats().full_runs, plan.size());
}

TEST(BatchRunner, SealedLanesRetireEarlyWithExactAttribution) {
    BatchFixture fx;
    const model::SystemModel& system = fx.sys.system();
    const runtime::Tick len = fx.golden->run.length;

    // Register the estimator's two rule shapes — direct attribution
    // (contamination witnesses + outputs) and the any-output-diff
    // ablation (outputs only) — and submit one injection per
    // (module, port, moment) to each, plus an unsealed reference runner.
    fi::BatchRunner direct = fx.make_runner();
    fi::BatchRunner ablation = fx.make_runner();
    fi::BatchRunner plain = fx.make_runner();
    struct Sub {
        model::ModuleId mid;
        std::uint32_t port;
        std::size_t direct_ticket;
        std::size_t ablation_ticket;
        std::size_t plain_ticket;
    };
    std::vector<Sub> subs;
    for (const model::ModuleId mid : system.all_modules()) {
        const auto& spec = system.module(mid);
        for (std::uint32_t port = 0; port < spec.input_count(); ++port) {
            fi::BatchRunner::SealRule direct_rule;
            for (std::uint32_t p = 0; p < spec.input_count(); ++p) {
                if (p != port) direct_rule.any_of.push_back(spec.inputs[p]);
            }
            direct_rule.all_of = spec.outputs;
            fi::BatchRunner::SealRule ablation_rule;
            ablation_rule.all_of = spec.outputs;
            const std::uint32_t dh = direct.add_seal_rule(std::move(direct_rule));
            const std::uint32_t ah = ablation.add_seal_rule(std::move(ablation_rule));
            for (const runtime::Tick at : {len / 5, len / 2}) {
                const auto inj = fi::Injection::into_module_input(mid, port, 0, at);
                subs.push_back({mid, port, direct.submit(inj, dh),
                                ablation.submit(inj, ah), plain.submit(inj)});
            }
        }
    }
    direct.flush();
    ablation.flush();
    plain.flush();

    for (const Sub& sub : subs) {
        const fi::BatchOutcome& dir = direct.outcome(sub.direct_ticket);
        const fi::BatchOutcome& abl = ablation.outcome(sub.ablation_ticket);
        const fi::BatchOutcome& ref = plain.outcome(sub.plain_ticket);
        EXPECT_EQ(dir.fired, ref.fired);
        EXPECT_EQ(abl.fired, ref.fired);
        if (!ref.fired) continue;
        // Direct attribution reads affected[]; sealed lanes may
        // under-record the first diff of a decided-not-affected output
        // (it would land after the contamination), but the attribution
        // itself must be exact.
        const fi::DirectOutcome da = fi::attribute_direct_from_first_diff(
            system, sub.mid, sub.port, dir.first_diff);
        const fi::DirectOutcome pa = fi::attribute_direct_from_first_diff(
            system, sub.mid, sub.port, ref.first_diff);
        EXPECT_EQ(da.affected, pa.affected);
        // The ablation rule (all outputs diffed) records every output
        // first-diff exactly — the facts its consumer reads raw.
        const auto& spec = system.module(sub.mid);
        for (const model::SignalId out : spec.outputs) {
            EXPECT_EQ(abl.first_diff[out.index()], ref.first_diff[out.index()]);
        }
    }
    EXPECT_GT(direct.stats().lanes_retired_sealed, 0U);
    EXPECT_EQ(plain.stats().lanes_retired_sealed, 0U);
    // Sealing strictly reduces executed lane ticks.
    EXPECT_LT(direct.stats().ticks_executed, plain.stats().ticks_executed);
    EXPECT_LE(ablation.stats().ticks_executed, plain.stats().ticks_executed);
}

/// Module-input flips of every bit of every port, and signal flips of
/// every bit of the system inputs, at `moments` moments — the
/// estimator's plan shape, dense enough that lanes whose error stays in a
/// counter (CALC's `i`, DIST_S's `pulscnt`) reach the same state as
/// another live lane and merge. A PACNT signal flip also diffs PACNT
/// itself, which the DIST_S input flip beside it never does.
std::vector<fi::Injection> merge_plan(const model::SystemModel& system, runtime::Tick len,
                                      runtime::Tick moments) {
    std::vector<fi::Injection> plan;
    for (runtime::Tick j = 1; j <= moments; ++j) {
        const runtime::Tick at = len * j / (moments + 1);
        for (const model::ModuleId mid : system.all_modules()) {
            const auto& spec = system.module(mid);
            for (std::uint32_t port = 0; port < spec.input_count(); ++port) {
                const unsigned width = system.signal(spec.inputs[port]).width;
                for (unsigned bit = 0; bit < width; ++bit) {
                    plan.push_back(fi::Injection::into_module_input(mid, port, bit, at + 3 * bit));
                }
            }
        }
        for (const model::SignalId sid : system.all_signals()) {
            if (system.signal(sid).role != model::SignalRole::kSystemInput) continue;
            for (unsigned bit = 0; bit < system.signal(sid).width; ++bit) {
                plan.push_back(fi::Injection::into_signal(sid, bit, at + 3 * bit));
            }
        }
    }
    return plan;
}

/// The seal rule of a plan, or none.
using SealFor = std::function<std::optional<fi::BatchRunner::SealRule>(const fi::Injection&)>;

/// Runs `plan` at width 1 (no two lanes live at once, so nothing merges)
/// and at the auto width, each plan under its seal rule — equal rules
/// share one handle, so their lanes may merge — and expects the same
/// outcome for every plan. Returns the wide runner.
fi::BatchRunner expect_merged_match_width_one(
    runtime::Simulator& sim, fi::Injector& injector,
    const std::shared_ptr<const fi::GoldenCaseData>& golden, fi::BatchRunner::Mode mode,
    const std::vector<fi::Injection>& plan, const SealFor& seal_for) {
    const bool perm = mode == fi::BatchRunner::Mode::kPermeability;
    std::vector<fi::BatchRunner> runners;
    for (const std::size_t width : {std::size_t{1}, std::size_t{0}}) {
        fi::BatchRunner& batch = runners.emplace_back(sim, injector);
        batch.set_mode(mode);
        batch.set_width(width);
        batch.set_golden(golden);
        using Ids = std::vector<std::uint32_t>;
        std::map<std::pair<Ids, Ids>, std::uint32_t> handles;
        const auto ids = [](const std::vector<model::SignalId>& signals) {
            Ids out;
            for (const model::SignalId s : signals) out.push_back(s.index());
            return out;
        };
        for (const fi::Injection& inj : plan) {
            std::uint32_t handle = fi::BatchRunner::kNoSeal;
            if (auto rule = seal_for(inj)) {
                const auto key = std::make_pair(ids(rule->any_of), ids(rule->all_of));
                const auto it = handles.find(key);
                handle = it != handles.end()
                             ? it->second
                             : handles.emplace(key, batch.add_seal_rule(std::move(*rule)))
                                   .first->second;
            }
            (void)batch.submit(inj, handle);
        }
        batch.flush();
    }
    const fi::BatchRunner& narrow = runners[0];
    const fi::BatchRunner& wide = runners[1];
    EXPECT_TRUE(narrow.merges().empty());
    EXPECT_GT(wide.stats().lanes_retired_merged, 0U);
    EXPECT_EQ(wide.stats().lanes_retired_merged, wide.merges().size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        SCOPED_TRACE("plan " + std::to_string(i) + " at " + std::to_string(plan[i].at));
        const fi::BatchOutcome& a = narrow.outcome(i);
        const fi::BatchOutcome& b = wide.outcome(i);
        EXPECT_EQ(a.fired, b.fired);
        EXPECT_EQ(a.end_tick, b.end_tick);
        EXPECT_EQ(a.finished, b.finished);
        EXPECT_EQ(a.pruned, b.pruned);
        if (perm) {
            EXPECT_EQ(a.first_diff, b.first_diff);
        } else {
            EXPECT_EQ(a.monitors, b.monitors);
            EXPECT_EQ(a.environment, b.environment);
        }
    }
    // A follower had recorded every first diff its leader had.
    if (perm) {
        for (const fi::BatchRunner::Merge& m : wide.merges()) {
            const std::vector<runtime::Tick>& f = narrow.outcome(m.follower).first_diff;
            const std::vector<runtime::Tick>& l = narrow.outcome(m.leader).first_diff;
            for (std::size_t s = 0; s < f.size(); ++s) {
                if (l[s] < m.at) {
                    EXPECT_LT(f[s], m.at) << "signal " << s << " merge at " << m.at;
                }
            }
        }
    }
    // Every lane retires one way, and the executed plus saved ticks of
    // the two runners cover the same runs.
    for (const fi::BatchRunner* batch : {&narrow, &wide}) {
        const fi::FastPathStats& st = batch->stats();
        EXPECT_EQ(st.lanes_launched, st.lanes_retired_pruned + st.lanes_retired_end +
                                         st.lanes_retired_sealed + st.lanes_retired_merged);
    }
    EXPECT_EQ(narrow.stats().ticks_executed + narrow.stats().ticks_saved,
              wide.stats().ticks_executed + wide.stats().ticks_saved);
    EXPECT_LT(wide.stats().ticks_executed, narrow.stats().ticks_executed);
    return std::move(runners[1]);
}

TEST(BatchRunner, MergedLanesMatchWidthOne) {
    BatchFixture fx;
    const model::SystemModel& system = fx.sys.system();
    const std::vector<fi::Injection> plan = merge_plan(system, fx.golden->run.length, 4);

    // The estimator's two seal rules per (module, port): direct
    // attribution (the other inputs as contamination witnesses, all
    // outputs) and the any-output-diff ablation (outputs only).
    const auto sealer = [&system](bool direct) -> SealFor {
        return [&system, direct](const fi::Injection& inj) {
            std::optional<fi::BatchRunner::SealRule> rule;
            if (inj.kind != fi::Injection::Kind::kModuleInput) return rule;
            const auto& spec = system.module(inj.module);
            rule.emplace();
            if (direct) {
                for (std::uint32_t p = 0; p < spec.input_count(); ++p) {
                    if (p != inj.port) rule->any_of.push_back(spec.inputs[p]);
                }
            }
            rule->all_of = spec.outputs;
            return rule;
        };
    };
    const SealFor unsealed = [](const fi::Injection&) {
        return std::optional<fi::BatchRunner::SealRule>();
    };
    // A follower whose own seal decides while its leader still runs, read
    // off the merges of a wide runner and the width-1 outcomes.
    const auto sealed_before_leader = [](const fi::BatchRunner& wide) {
        return std::any_of(wide.merges().begin(), wide.merges().end(),
                           [&wide](const fi::BatchRunner::Merge& m) {
                               const fi::BatchOutcome& f = wide.outcome(m.follower);
                               return !f.pruned && !f.finished &&
                                      f.end_tick < wide.outcome(m.leader).end_tick;
                           });
    };
    for (const bool direct : {true, false}) {
        SCOPED_TRACE(direct ? "direct attribution" : "ablation");
        (void)expect_merged_match_width_one(fx.sys.sim(), fx.injector, fx.golden,
                                            fi::BatchRunner::Mode::kPermeability, plan,
                                            sealer(direct));
    }

    // Unsealed permeability lanes follow their leader to its retirement,
    // through chains: a leader may itself follow another lane later.
    const fi::BatchRunner wide = expect_merged_match_width_one(
        fx.sys.sim(), fx.injector, fx.golden, fi::BatchRunner::Mode::kPermeability, plan,
        unsealed);
    std::vector<bool> follows(plan.size(), false);
    for (const fi::BatchRunner::Merge& m : wide.merges()) {
        EXPECT_EQ(m.at % fi::BatchRunner::kMergeCheckPeriod, 0U);
        follows[m.follower] = true;
    }
    EXPECT_TRUE(std::any_of(wide.merges().begin(), wide.merges().end(),
                            [&follows](const fi::BatchRunner::Merge& m) {
                                return follows[m.leader];
                            }));

    // A follower may have recorded a first diff its leader still lacks
    // (`extra`). Under a rule that waits for `extra` and for a signal both
    // still lacked at the merge (`later`), the follower's seal decides at
    // `later`'s first diff while the leader keeps running: its outcome is
    // cut there, not at the leader's retirement.
    fi::BatchRunner narrow = fx.make_runner(1);
    for (const fi::Injection& inj : plan) (void)narrow.submit(inj);
    narrow.flush();
    std::optional<fi::BatchRunner::SealRule> early;
    for (const fi::BatchRunner::Merge& m : wide.merges()) {
        const std::vector<runtime::Tick>& f = narrow.outcome(m.follower).first_diff;
        const std::vector<runtime::Tick>& l = narrow.outcome(m.leader).first_diff;
        std::optional<model::SignalId> extra;
        std::optional<model::SignalId> later;
        for (std::uint32_t s = 0; s < f.size(); ++s) {
            if (f[s] < m.at && l[s] >= m.at) extra = model::SignalId{s};
            if (f[s] >= m.at && f[s] != runtime::kInvalidTick) later = model::SignalId{s};
        }
        if (extra && later) {
            early = fi::BatchRunner::SealRule{{}, {*extra, *later}};
            break;
        }
    }
    ASSERT_TRUE(early.has_value());
    const fi::BatchRunner cut = expect_merged_match_width_one(
        fx.sys.sim(), fx.injector, fx.golden, fi::BatchRunner::Mode::kPermeability, plan,
        [&early](const fi::Injection&) { return early; });
    EXPECT_TRUE(sealed_before_leader(cut));
}

TEST(BatchRunner, LanesMergeOnlyIntoALeaderStillMissingTheirDiffs) {
    // In case 0, a flip of DIST_S's PACNT frame word at tick 7866 and a
    // PACNT signal flip at tick 13106 reach the same state by tick 13248
    // (both errors end up as the same pulscnt offset), but each lane has
    // recorded a first diff the other lacks: the frame flip ms_slot_nbr
    // and i, the signal flip PACNT itself. Neither may follow the other —
    // the follower would take the leader's earlier first diff.
    BatchFixture fx(0);
    const model::SystemModel& system = fx.sys.system();
    const runtime::MemoryMap& memory = fx.sys.sim().memory();
    std::size_t frame_word = memory.word_count();
    for (std::size_t w = 0; w < memory.word_count(); ++w) {
        if (memory.word(w).label == "DIST_S.arg_PACNT") frame_word = w;
    }
    ASSERT_LT(frame_word, memory.word_count());
    const model::SignalId pacnt = system.signal_id("PACNT");
    const model::SignalId slot = system.signal_id("ms_slot_nbr");
    const std::vector<fi::Injection> plan = {
        fi::Injection::into_memory(frame_word, 2, 7866, /*period=*/0),
        fi::Injection::into_signal(pacnt, 2, 13106)};
    fi::BatchRunner narrow = fx.make_runner(1);
    for (const fi::Injection& inj : plan) (void)narrow.submit(inj);
    narrow.flush();
    const fi::BatchOutcome& frame = narrow.outcome(0);
    const fi::BatchOutcome& signal = narrow.outcome(1);
    const runtime::Tick m = 13248;
    EXPECT_LT(frame.first_diff[slot.index()], m);
    EXPECT_GE(signal.first_diff[slot.index()], m);
    EXPECT_LT(signal.first_diff[pacnt.index()], m);
    EXPECT_GE(frame.first_diff[pacnt.index()], m);
    // They merge once one has recorded all the other has.
    const fi::BatchRunner wide = expect_merged_match_width_one(
        fx.sys.sim(), fx.injector, fx.golden, fi::BatchRunner::Mode::kPermeability, plan,
        [](const fi::Injection&) { return std::optional<fi::BatchRunner::SealRule>(); });
    for (const fi::BatchRunner::Merge& mg : wide.merges()) EXPECT_GT(mg.at, m);
}

TEST(BatchRunner, MergedCoverageLanesMatchWidthOne) {
    // Coverage outcomes carry the armed EAs' state and the plant's; a
    // follower's is its leader's.
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[3]);
    fi::Injector injector(sys.sim());
    const fi::GoldenRun gr = fi::capture_golden_run(sys.sim(), target::kMaxRunTicks);
    ea::EaBank bank = exp::make_calibrated_bank(sys.system(), {gr.trace});
    bank.arm(sys.sim());
    const auto golden = std::make_shared<const fi::GoldenCaseData>(
        fi::capture_golden_data(sys.sim(), target::kMaxRunTicks, /*with_snapshots=*/true));
    (void)expect_merged_match_width_one(
        sys.sim(), injector, golden, fi::BatchRunner::Mode::kCoverage,
        merge_plan(sys.system(), golden->run.length, 4),
        [](const fi::Injection&) { return std::optional<fi::BatchRunner::SealRule>(); });
    sys.sim().clear_monitors();
}

TEST(BatchRunner, PeriodicPlansMatchReplay) {
    // Severe-model plans — periodic random-bit flips into memory words —
    // plus periodic fixed-bit signal flips, with the calibrated EA bank
    // armed so the fused kernel steps the EAs. The lanes start from the
    // reset-only data captured under the armed bank.
    BatchFixture fx;
    runtime::Simulator& sim = fx.sys.sim();
    ea::EaBank bank =
        exp::make_calibrated_bank(fx.sys.system(), {fx.golden->run.trace});
    bank.arm(sim);
    const auto reset = std::make_shared<const fi::GoldenCaseData>(
        fi::capture_reset_data(sim, *fx.golden));
    ASSERT_EQ(reset->boundary.size(), 1U);

    struct Plan {
        fi::Injection inj;
        std::uint64_t seed;
    };
    std::vector<Plan> plans;
    for (std::size_t w = 0; w < sim.memory().word_count(); ++w) {
        plans.push_back(
            {fi::Injection::into_memory(w, fi::kRandomBit, 10, 20), 0x5e7e8eULL + w});
    }
    const runtime::Tick len = fx.golden->run.length;
    for (const char* name : {"PACNT", "TIC1", "pulscnt", "SetValue"}) {
        fi::Injection inj =
            fi::Injection::into_signal(fx.sys.system().signal_id(name), 1, len / 8);
        inj.period = 400;
        plans.push_back({inj, 1});
    }

    std::vector<fi::BatchOutcome> refs;
    for (const Plan& p : plans) {
        refs.push_back(
            coverage_replay(sim, fx.injector, p.inj, fx.golden->max_ticks, p.seed));
    }
    bool any_detected = false;
    bool any_failed = false;
    for (const fi::BatchOutcome& ref : refs) {
        any_detected |= std::any_of(ref.monitors.begin(), ref.monitors.end(),
                                    [](std::uint64_t v) { return v != 0; });
        runtime::StateReader r(ref.environment);
        fx.sys.plant().restore_state(r);
        any_failed |= fx.sys.plant().failure_report().failed();
    }
    // The outcomes are not all the golden one: EAs fire and plants fail.
    EXPECT_TRUE(any_detected);
    EXPECT_TRUE(any_failed);

    for (const std::size_t width : {std::size_t{1}, std::size_t{7}, std::size_t{81}}) {
        SCOPED_TRACE("width " + std::to_string(width));
        fi::BatchRunner batch(sim, fx.injector);
        batch.set_mode(fi::BatchRunner::Mode::kCoverage);
        batch.set_width(width);
        batch.set_golden(reset);
        std::vector<std::size_t> tickets;
        for (const Plan& p : plans) {
            tickets.push_back(batch.submit(p.inj, fi::BatchRunner::kNoSeal, p.seed));
        }
        batch.flush();
        for (std::size_t i = 0; i < plans.size(); ++i) {
            SCOPED_TRACE("plan " + std::to_string(i));
            expect_coverage_equal(batch.outcome(tickets[i]), refs[i]);
        }
        const fi::FastPathStats& st = batch.stats();
        EXPECT_EQ(st.lanes_launched, plans.size());
        EXPECT_EQ(st.full_runs, plans.size());
        EXPECT_EQ(st.lanes_retired_pruned, 0U);
        EXPECT_EQ(st.lanes_retired_end, plans.size());
    }
    sim.clear_monitors();
}

TEST(BatchRunner, PeriodicPlanOnScalarLaneBackendMatchesReplay) {
    // The tank target installs no fused backend: its lanes multiplex
    // through the scalar simulator.
    alt::TankSystem tank;
    tank.configure(alt::standard_tank_scenarios().front());
    ASSERT_EQ(tank.sim().batch_backend(), nullptr);
    fi::Injector injector(tank.sim());
    const fi::GoldenCaseData bare =
        fi::capture_golden_data(tank.sim(), 20000, /*with_snapshots=*/false);
    const auto reset = std::make_shared<const fi::GoldenCaseData>(
        fi::capture_reset_data(tank.sim(), bare));

    const fi::Injection inj = fi::Injection::into_memory(0, fi::kRandomBit, 10, 20);
    const fi::BatchOutcome ref = coverage_replay(tank.sim(), injector, inj, 20000, 42);

    fi::BatchRunner batch(tank.sim(), injector);
    batch.set_mode(fi::BatchRunner::Mode::kCoverage);
    batch.set_golden(reset);
    const std::size_t ticket = batch.submit(inj, fi::BatchRunner::kNoSeal, 42);
    batch.flush();
    expect_coverage_equal(batch.outcome(ticket), ref);
    EXPECT_EQ(batch.stats().lanes_launched, 1U);
}

/// One-shot plans at every tick 0..17 (the first three stride
/// boundaries and the ticks between them), at L-1 and at a mid-run
/// multiple of the stride, alternating signal and module-input flips,
/// plus one fixed-bit flip of every registered memory word, cycling over
/// the same ticks: each lane forks at the stride floor of its injection
/// tick and runs up to kPruneCheckPeriod-1 fault-free ticks before its
/// flip.
std::vector<fi::Injection> stride_floor_plan(const runtime::Simulator& sim,
                                             runtime::Tick len) {
    const model::SystemModel& system = sim.system();
    std::vector<runtime::Tick> ticks;
    for (runtime::Tick t = 0; t < 18; ++t) ticks.push_back(t);
    ticks.push_back(len - 1);
    ticks.push_back(len / 2 / fi::kPruneCheckPeriod * fi::kPruneCheckPeriod);
    const std::vector<model::SignalId> signals = system.all_signals();
    const auto modules = system.all_modules();
    const auto module = *std::find_if(modules.begin(), modules.end(), [&](model::ModuleId m) {
        return system.module(m).input_count() > 0;
    });
    const auto& spec = system.module(module);
    std::vector<fi::Injection> plan;
    for (std::size_t i = 0; i < ticks.size(); ++i) {
        const model::SignalId sid = signals[i % signals.size()];
        plan.push_back(fi::Injection::into_signal(
            sid, static_cast<unsigned>(i % system.signal(sid).width), ticks[i]));
        const auto port = static_cast<std::uint32_t>(i % spec.input_count());
        const unsigned width = system.signal(spec.inputs[port]).width;
        plan.push_back(fi::Injection::into_module_input(
            module, port, static_cast<unsigned>((3 * i) % width), ticks[i]));
    }
    for (std::size_t w = 0; w < sim.memory().word_count(); ++w) {
        const auto bit = static_cast<unsigned>(w % sim.memory().word(w).width);
        plan.push_back(
            fi::Injection::into_memory(w, bit, ticks[w % ticks.size()], /*period=*/0));
    }
    return plan;
}

/// Lanes forked at the stride floor must reproduce the reference path
/// (replay from tick 0, via a snapshot-free golden) at widths 1, 7 and
/// 256, in both modes, under whatever monitors `sim` has armed.
void expect_stride_floor_forks_match_replay(runtime::Simulator& sim,
                                            fi::Injector& injector,
                                            runtime::Tick max_ticks) {
    const auto golden = std::make_shared<const fi::GoldenCaseData>(
        fi::capture_golden_data(sim, max_ticks, /*with_snapshots=*/true));
    const auto bare = std::make_shared<const fi::GoldenCaseData>(
        fi::capture_golden_data(sim, max_ticks, /*with_snapshots=*/false));
    const runtime::Tick len = golden->run.length;
    ASSERT_GT(len, 4 * fi::kPruneCheckPeriod);
    const std::vector<fi::Injection> plan = stride_floor_plan(sim, len);
    const auto before_first_stride = static_cast<std::uint64_t>(
        std::count_if(plan.begin(), plan.end(), [](const fi::Injection& inj) {
            return inj.at < fi::kPruneCheckPeriod;
        }));

    for (const auto mode : {fi::BatchRunner::Mode::kPermeability,
                            fi::BatchRunner::Mode::kCoverage}) {
        const bool perm = mode == fi::BatchRunner::Mode::kPermeability;
        SCOPED_TRACE(perm ? "permeability" : "coverage");
        fi::BatchRunner ref(sim, injector);
        ref.set_mode(mode);
        ref.set_golden(bare);
        for (const fi::Injection& inj : plan) (void)ref.submit(inj);
        ref.flush();

        for (const std::size_t width : {std::size_t{1}, std::size_t{7}, std::size_t{256}}) {
            SCOPED_TRACE("width " + std::to_string(width));
            fi::BatchRunner batch(sim, injector);
            batch.set_mode(mode);
            batch.set_width(width);
            batch.set_golden(golden);
            for (const fi::Injection& inj : plan) (void)batch.submit(inj);
            batch.flush();
            for (std::size_t i = 0; i < plan.size(); ++i) {
                SCOPED_TRACE("plan " + std::to_string(i) + " at " +
                             std::to_string(plan[i].at));
                const fi::BatchOutcome& lane = batch.outcome(i);
                const fi::BatchOutcome& want = ref.outcome(i);
                EXPECT_TRUE(lane.fired);
                EXPECT_EQ(lane.fired, want.fired);
                if (perm) {
                    EXPECT_EQ(lane.first_diff, want.first_diff);
                    if (lane.finished) {
                        EXPECT_EQ(lane.end_tick, want.end_tick);
                    }
                } else {
                    EXPECT_EQ(lane.end_tick, want.end_tick);
                    EXPECT_EQ(lane.finished, want.finished);
                    EXPECT_EQ(lane.monitors, want.monitors);
                    EXPECT_EQ(lane.environment, want.environment);
                }
            }
            // Plans before the first stride boundary fork from the reset
            // state and count as full runs; the rest fork.
            const fi::FastPathStats& st = batch.stats();
            EXPECT_EQ(st.lanes_launched, plan.size());
            EXPECT_EQ(st.full_runs, before_first_stride);
            EXPECT_EQ(st.forked_runs, plan.size() - before_first_stride);
        }
    }
}

TEST(BatchRunner, StrideFloorForksMatchReplayOnFusedKernel) {
    // With the calibrated EA bank armed, coverage outcomes carry monitor
    // state as well as the plant's.
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[3]);
    fi::Injector injector(sys.sim());
    ASSERT_NE(sys.sim().batch_backend(), nullptr);
    const fi::GoldenRun gr = fi::capture_golden_run(sys.sim(), target::kMaxRunTicks);
    ea::EaBank bank = exp::make_calibrated_bank(sys.system(), {gr.trace});
    bank.arm(sys.sim());
    expect_stride_floor_forks_match_replay(sys.sim(), injector, target::kMaxRunTicks);
    sys.sim().clear_monitors();
}

TEST(ArrestmentBatchBackend, LaneTracksTheScalarSimulatorEveryTick) {
    // The fused kernel and the scalar Simulator run the same module and
    // plant code; a lane stepped beside the simulator must hold its whole
    // state (signals, every memory word, the DIST_S latch, the plant and
    // the armed EAs) after every tick, through a flip of every memory
    // word and of one frame port.
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[3]);
    runtime::Simulator& sim = sys.sim();
    const fi::GoldenRun gr = fi::capture_golden_run(sim, target::kMaxRunTicks);
    ea::EaBank bank = exp::make_calibrated_bank(sys.system(), {gr.trace});
    bank.arm(sim);
    sim.reset();
    runtime::Snapshot snap;
    sim.capture_snapshot(snap);
    runtime::BatchState state;
    state.reset(runtime::SnapshotLayout::of(snap), 3);
    runtime::BatchBackend* kernel = sim.batch_backend();
    ASSERT_TRUE(kernel->begin(state));
    ASSERT_EQ(state.activate(snap), 0U);

    const std::size_t words = sim.memory().word_count();
    runtime::Tick t = 0;
    for (; t < target::kMaxRunTicks; ++t) {
        std::vector<runtime::BatchFlip> flips;
        if (t % 40 == 5 && t / 40 <= words) {
            runtime::BatchFlip f;
            if (t / 40 < words) {
                f.point = runtime::BatchFlip::Point::kMemory;
                f.word_index = t / 40;
            } else {
                f.point = runtime::BatchFlip::Point::kFrame;
                f.module = sys.system().module_id("V_REG");
                f.port = 1;
            }
            f.bit = static_cast<unsigned>(t % 7);
            flips.push_back(f);
            state.set_launch(0, f);
        }
        kernel->step(state, t);
        state.clear_launches();
        sim.step_tick(flips);
        sim.capture_snapshot(snap);
        ASSERT_TRUE(state.lane_equals(0, snap)) << "tick " << t;
        ASSERT_EQ(state.finished(0), sim.environment().finished()) << "tick " << t;
        if (state.finished(0)) break;
    }
    EXPECT_TRUE(state.finished(0));
    EXPECT_GT(t, 40 * (words + 1));  // every flip was made
    sim.clear_monitors();
}

TEST(ArrestmentBatchBackend, FollowingLaneTracksTheScalarSimulatorThroughItsFirstToc2Diff) {
    // Two lanes fork from a golden boundary and follow the golden plant.
    // Lane 0 takes a frame flip that changes TOC2 on its tick, at each
    // offset 0-7 within the stride: it stops following exactly then, and
    // holds the scalar simulator's whole state and finished flag every
    // tick. Lane 1 never flips and holds the golden boundaries to the end.
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[3]);
    runtime::Simulator& sim = sys.sim();
    const fi::GoldenRun gr = fi::capture_golden_run(sim, target::kMaxRunTicks);
    ea::EaBank bank = exp::make_calibrated_bank(sys.system(), {gr.trace});
    bank.arm(sim);
    const fi::GoldenCaseData golden =
        fi::capture_golden_data(sim, target::kMaxRunTicks, /*with_snapshots=*/true);
    const runtime::Tick len = golden.run.length;
    std::vector<const std::uint32_t*> rows;
    for (const model::SignalId sid : sys.system().all_signals()) {
        rows.push_back(golden.run.trace.series(sid).data());
    }
    const model::SignalId toc2 = sys.plant().actuator();
    runtime::BatchFlip flip;
    flip.point = runtime::BatchFlip::Point::kFrame;
    flip.module = sys.system().module_id("PRES_A");
    flip.port = 0;
    flip.bit = 15;
    runtime::BatchBackend* kernel = sim.batch_backend();
    const runtime::Tick t0 = len / 2 / fi::kPruneCheckPeriod * fi::kPruneCheckPeriod;
    const runtime::Snapshot& fork = golden.boundary[t0 / fi::kPruneCheckPeriod];

    for (runtime::Tick offset = 0; offset < fi::kPruneCheckPeriod; ++offset) {
        SCOPED_TRACE("offset " + std::to_string(offset));
        runtime::BatchState state;
        state.reset(runtime::SnapshotLayout::of(fork), 2);
        state.set_golden(rows, len);
        ASSERT_TRUE(kernel->begin(state));
        ASSERT_EQ(state.activate(fork), 0U);
        ASSERT_EQ(state.activate(fork), 1U);
        ASSERT_EQ(state.followers(), 2U);
        sim.restore_snapshot(fork);
        runtime::Snapshot snap;
        runtime::Snapshot lane;
        bool lane1_live = true;
        runtime::Tick t = t0;
        for (; t < target::kMaxRunTicks; ++t) {
            std::vector<runtime::BatchFlip> flips;
            if (t == t0 + offset) {
                flips.push_back(flip);
                state.set_launch(0, flip);
            }
            kernel->step(state, t);
            state.clear_launches();
            sim.step_tick(flips);
            sim.capture_snapshot(snap);
            if (t == t0 + offset) {
                ASSERT_NE(sim.signals().get(toc2), golden.run.trace.at(toc2, t));
            }
            ASSERT_EQ(state.follows(0), t < t0 + offset) << "tick " << t;
            ASSERT_TRUE(state.lane_equals(0, snap)) << "tick " << t;
            state.assemble(0, lane);
            lane.tick = snap.tick;
            ASSERT_TRUE(lane.same_state(snap)) << "tick " << t;
            ASSERT_EQ(state.finished(0), sim.environment().finished()) << "tick " << t;
            if (lane1_live) {
                const runtime::Tick k = t + 1;
                ASSERT_TRUE(state.follows(1));
                if (k % fi::kPruneCheckPeriod == 0 && k < len) {
                    ASSERT_TRUE(state.lane_equals(1, golden.boundary[k / fi::kPruneCheckPeriod]))
                        << "tick " << t;
                }
                ASSERT_EQ(state.finished(1), k == len && golden.run.finished) << "tick " << t;
                if (k == len) {
                    EXPECT_TRUE(state.lane_equals(1, golden.last));
                    (void)state.retire(1);
                    lane1_live = false;
                }
            }
            if (state.finished(0)) break;
        }
        EXPECT_TRUE(state.finished(0));
        EXPECT_GT(t, t0 + offset);
    }
    sim.clear_monitors();
}

TEST(BatchState, FollowersServeTheReferenceColumnToEveryEnvironmentRead) {
    // A follower's own environment rows are stale; compares, assemble and
    // extract_environment read its words from the reference column.
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[3]);
    sys.sim().reset();
    runtime::Snapshot snap;
    sys.sim().capture_snapshot(snap);
    const std::vector<std::uint32_t> actuator_row(10, 0);
    std::vector<const std::uint32_t*> rows(snap.signals.size(), actuator_row.data());

    runtime::BatchState state;
    state.reset(runtime::SnapshotLayout::of(snap), 3);
    state.set_golden(rows, 10);
    state.follow_golden();
    for (std::size_t lane = 0; lane < 3; ++lane) ASSERT_EQ(state.activate(snap), lane);
    ASSERT_EQ(state.followers(), 3U);
    EXPECT_TRUE(std::ranges::equal(state.reference(), snap.environment));

    state.stop_following(2);
    EXPECT_FALSE(state.follows(2));
    EXPECT_EQ(state.followers(), 2U);
    // Stale rows of the followers do not count; the reference column does.
    state.environment_row(0)[0] ^= 1;
    EXPECT_TRUE(state.lanes_equal(0, 2));
    EXPECT_TRUE(state.lane_equals(0, snap));
    state.environment_row(0)[2] ^= 1;
    EXPECT_FALSE(state.lanes_equal(0, 2));
    EXPECT_FALSE(state.lanes_equal(2, 0));
    EXPECT_TRUE(state.lanes_equal(0, 1));
    EXPECT_FALSE(state.lane_equals(2, snap));
    state.reference()[1] ^= 1;
    EXPECT_FALSE(state.lane_equals(0, snap));
    EXPECT_TRUE(state.lanes_equal(0, 1));
    std::vector<std::uint64_t> env;
    state.extract_environment(0, env);
    EXPECT_TRUE(std::ranges::equal(env, state.reference()));
    runtime::Snapshot lane;
    state.assemble(1, lane);
    EXPECT_EQ(lane.environment, env);
    state.extract_environment(2, env);
    EXPECT_EQ(env[0], snap.environment[0] ^ 1);

    // Retiring and reloading keep the follow flags with their lanes.
    EXPECT_EQ(state.retire(0), 2U);
    EXPECT_FALSE(state.follows(0));
    EXPECT_EQ(state.followers(), 1U);
    state.load_lane(1, snap);
    EXPECT_FALSE(state.follows(1));
    EXPECT_EQ(state.followers(), 0U);
}

TEST(BatchRunner, StrideFloorForksMatchReplayOnScalarLaneBackend) {
    alt::TankSystem tank;
    tank.configure(alt::standard_tank_scenarios().front());
    fi::Injector injector(tank.sim());
    ASSERT_EQ(tank.sim().batch_backend(), nullptr);
    expect_stride_floor_forks_match_replay(tank.sim(), injector, 20000);
}

TEST(GoldenCapture, StoresStrideBoundariesAndTheEndState) {
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[0]);
    const fi::GoldenCaseData golden =
        fi::capture_golden_data(sys.sim(), target::kMaxRunTicks, /*with_snapshots=*/true);
    const runtime::Tick len = golden.run.length;
    ASSERT_EQ(golden.boundary.size(),
              static_cast<std::size_t>(len / fi::kPruneCheckPeriod) + 1);
    for (std::size_t i = 0; i < golden.boundary.size(); ++i) {
        EXPECT_EQ(golden.boundary[i].tick, i * fi::kPruneCheckPeriod);
    }
    EXPECT_EQ(golden.last.tick, len);

    // `last` is the end state of an uninterrupted run.
    sys.sim().reset();
    const runtime::RunResult rr = sys.sim().run(target::kMaxRunTicks);
    EXPECT_EQ(rr.ticks, len);
    EXPECT_EQ(rr.env_finished, golden.run.finished);
    runtime::Snapshot end;
    sys.sim().capture_snapshot(end);
    EXPECT_TRUE(end.same_state(golden.last));

    // At most a quarter of the per-tick form: the same trace plus one
    // boundary snapshot for each of the len + 1 ticks.
    const fi::GoldenCaseData bare =
        fi::capture_golden_data(sys.sim(), target::kMaxRunTicks, /*with_snapshots=*/false);
    const std::size_t per_tick =
        bare.approx_bytes() + (len + 1) * golden.boundary[0].approx_bytes();
    EXPECT_LE(4 * golden.approx_bytes(), per_tick);
}

TEST(BatchRunner, ReferenceColumnIsTheGoldenEnvironmentAtEveryStrideTick) {
    // A permeability flush whose lanes mostly follow the golden plant and
    // partly stop following: the reference column holds boundary[k/8]'s
    // environment words at every stride tick it is read, and the
    // outcomes are replay's.
    BatchFixture fx;
    runtime::Simulator& sim = fx.sys.sim();
    const runtime::Tick len = fx.golden->run.length;
    std::vector<fi::Injection> plan = mixed_plan(fx.sys.system(), len);
    for (std::size_t w = 0; w < sim.memory().word_count(); ++w) {
        plan.push_back(fi::Injection::into_memory(w, 3, len / 3 + w % 8, 0));
    }
    runtime::BatchBackend* kernel = sim.batch_backend();
    FollowProbe probe(*kernel, *fx.golden);
    sim.set_batch_backend(&probe);
    fi::BatchRunner batch = fx.make_runner();
    std::vector<std::size_t> tickets;
    for (const fi::Injection& inj : plan) tickets.push_back(batch.submit(inj));
    batch.flush();
    sim.set_batch_backend(kernel);

    EXPECT_GT(probe.column_checks, len / fi::kPruneCheckPeriod / 2);
    EXPECT_EQ(probe.column_mismatches, 0U);
    EXPECT_GT(probe.follower_ticks, 0U);
    EXPECT_GT(probe.own_ticks, 0U);  // some lanes' TOC2 differed
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const ReplayRef ref = fx.replay(plan[i]);
        EXPECT_EQ(batch.outcome(tickets[i]).fired, ref.fired) << "plan " << i;
        EXPECT_EQ(batch.outcome(tickets[i]).first_diff, ref.first_diff) << "plan " << i;
    }
}

TEST(BatchRunner, CoverageLaneFollowingToTheGoldenFinishRetiresWithTheGoldenEnd) {
    // One-shot coverage lanes whose TOC2 never differs from the golden
    // run's follow its plant to the finish: they retire there with the
    // golden end state's environment words, as replay leaves them.
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[3]);
    runtime::Simulator& sim = sys.sim();
    fi::Injector injector(sim);
    const fi::GoldenRun gr = fi::capture_golden_run(sim, target::kMaxRunTicks);
    ea::EaBank bank = exp::make_calibrated_bank(sys.system(), {gr.trace});
    bank.arm(sim);
    const auto golden = std::make_shared<const fi::GoldenCaseData>(
        fi::capture_golden_data(sim, target::kMaxRunTicks, /*with_snapshots=*/true));
    const runtime::Tick len = golden->run.length;
    const std::size_t toc2 = sys.plant().actuator().index();

    std::vector<fi::Injection> plan;
    for (const model::SignalId sid : sys.system().all_signals()) {
        plan.push_back(
            fi::Injection::into_signal(sid, sys.system().signal(sid).width - 1U, len / 2));
    }
    std::vector<ReplayRef> refs;
    std::vector<fi::BatchOutcome> covs;
    for (const fi::Injection& inj : plan) {
        refs.push_back(replay_ref(sim, injector, *golden, inj));
        covs.push_back(coverage_replay(sim, injector, inj, target::kMaxRunTicks, 1));
    }

    fi::BatchRunner batch(sim, injector);
    batch.set_mode(fi::BatchRunner::Mode::kCoverage);
    batch.set_golden(golden);
    std::vector<std::size_t> tickets;
    for (const fi::Injection& inj : plan) tickets.push_back(batch.submit(inj));
    batch.flush();

    std::size_t followed_to_finish = 0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        SCOPED_TRACE("plan " + std::to_string(i));
        const fi::BatchOutcome& oc = batch.outcome(tickets[i]);
        if (oc.pruned) {
            EXPECT_EQ(oc.environment, golden->last.environment);
            continue;
        }
        expect_coverage_equal(oc, covs[i]);
        if (refs[i].first_diff[toc2] != runtime::kInvalidTick) continue;
        ++followed_to_finish;
        EXPECT_EQ(oc.environment, golden->last.environment);
        EXPECT_EQ(oc.end_tick, len);
        EXPECT_EQ(oc.finished, golden->run.finished);
    }
    EXPECT_GT(followed_to_finish, 0U);
    sim.clear_monitors();
}

TEST(BatchRunner, PeriodicLanesFollowTheGoldenPlantOnlyWithItsToc2Series) {
    // Reset-only data carries the golden TOC2 series alone; with it,
    // periodic lanes follow the golden plant until their TOC2 differs,
    // without it they all run their own — and both match replay.
    BatchFixture fx;
    runtime::Simulator& sim = fx.sys.sim();
    ea::EaBank bank =
        exp::make_calibrated_bank(fx.sys.system(), {fx.golden->run.trace});
    bank.arm(sim);
    const auto reset = std::make_shared<const fi::GoldenCaseData>(
        fi::capture_reset_data(sim, *fx.golden));
    const model::SignalId toc2 = fx.sys.plant().actuator();
    for (const model::SignalId sid : fx.sys.system().all_signals()) {
        EXPECT_EQ(reset->run.trace.series(sid).size(),
                  sid == toc2 ? fx.golden->run.length : 0U);
    }
    EXPECT_EQ(reset->run.trace.series(toc2), fx.golden->run.trace.series(toc2));
    auto bare = std::make_shared<fi::GoldenCaseData>(*reset);
    bare->run.trace.set_series(toc2, {});

    std::vector<fi::Injection> plans;
    std::vector<std::uint64_t> seeds;
    for (std::size_t w = 0; w < sim.memory().word_count(); w += 4) {
        plans.push_back(fi::Injection::into_memory(w, fi::kRandomBit, 10, 20));
        seeds.push_back(0x5e7e8eULL + w);
    }
    std::vector<fi::BatchOutcome> refs;
    for (std::size_t i = 0; i < plans.size(); ++i) {
        refs.push_back(
            coverage_replay(sim, fx.injector, plans[i], fx.golden->max_ticks, seeds[i]));
    }

    runtime::BatchBackend* kernel = sim.batch_backend();
    for (const bool with_series : {true, false}) {
        SCOPED_TRACE(with_series ? "with TOC2 series" : "without");
        FollowProbe probe(*kernel, *fx.golden);
        sim.set_batch_backend(&probe);
        fi::BatchRunner batch(sim, fx.injector);
        batch.set_mode(fi::BatchRunner::Mode::kCoverage);
        batch.set_golden(with_series ? reset
                                     : std::shared_ptr<const fi::GoldenCaseData>(bare));
        std::vector<std::size_t> tickets;
        for (std::size_t i = 0; i < plans.size(); ++i) {
            tickets.push_back(batch.submit(plans[i], fi::BatchRunner::kNoSeal, seeds[i]));
        }
        batch.flush();
        sim.set_batch_backend(kernel);
        for (std::size_t i = 0; i < plans.size(); ++i) {
            SCOPED_TRACE("plan " + std::to_string(i));
            expect_coverage_equal(batch.outcome(tickets[i]), refs[i]);
        }
        EXPECT_EQ(probe.column_mismatches, 0U);
        if (with_series) {
            EXPECT_GT(probe.column_checks, 0U);
            EXPECT_GT(probe.follower_ticks, 0U);
            EXPECT_GT(probe.own_ticks, 0U);
        } else {
            EXPECT_EQ(probe.follower_ticks, 0U);
        }
    }
    sim.clear_monitors();
}

TEST(StageLedger, StagesAddUpToTheRunnerCycles) {
    // Compiled in (EPEA_STAGE_LEDGER=ON), a flush publishes its stage
    // cycles, and the runner stages cover its cycles; compiled out,
    // nothing is recorded or registered.
    BatchFixture fx;
    const std::vector<fi::Injection> plan = mixed_plan(fx.sys.system(), fx.golden->run.length);
    obs::stage_ledger() = obs::StageLedger{};  // drop kernel steps made outside a flush
    auto& reg = obs::MetricsRegistry::global();
    const obs::MetricsSnapshot before = reg.snapshot();
    fi::BatchRunner batch = fx.make_runner();
    for (const fi::Injection& inj : plan) (void)batch.submit(inj);
    batch.flush();
    const obs::MetricsSnapshot delta = obs::MetricsSnapshot::diff(before, reg.snapshot());
    const auto cycles = [&](const char* stage) {
        return delta.counter(std::string("fi.stage_cycles.") + stage);
    };
    const obs::StageLedger& ledger = obs::stage_ledger();
    EXPECT_EQ(ledger.runner_cycles, 0U);  // published and zeroed
    if constexpr (!obs::kStageLedger) {
        EXPECT_EQ(delta.find("fi.stage_cycles.runner"), nullptr);
        EXPECT_EQ(ledger.follower_lane_ticks, 0U);
        return;
    }
    const std::uint64_t runner = cycles("runner");
    ASSERT_GT(runner, 0U);
    std::uint64_t stages = 0;
    for (const char* s : {"fork_launch", "kernel_step", "scan", "retire", "merge_check"}) {
        stages += cycles(s);
    }
    EXPECT_LE(stages, runner);
    EXPECT_GE(static_cast<double>(stages), 0.95 * static_cast<double>(runner));
    std::uint64_t kernel = 0;
    for (std::size_t s = static_cast<std::size_t>(obs::Stage::kPlantSense);
         s < obs::kStageCount; ++s) {
        kernel += cycles(obs::kStageNames[s]);
    }
    EXPECT_GT(kernel, 0U);
    EXPECT_LE(kernel, cycles("kernel_step"));
    EXPECT_GT(delta.counter("fi.lanes.follower_ticks"), 0U);
    EXPECT_LE(delta.counter("fi.lanes.follower_ticks"), batch.stats().ticks_executed);
}

TEST(BatchRunner, InvalidPlansAreRejected) {
    BatchFixture fx;
    fi::BatchRunner batch = fx.make_runner();
    const model::SignalId sid = fx.sys.system().all_signals().front();
    EXPECT_THROW((void)batch.submit(fi::Injection::into_signal(sid, 0, 10),
                                    /*seal=*/123),
                 std::invalid_argument);
    // Random bits are drawn per firing of a periodic schedule only.
    EXPECT_THROW(
        (void)batch.submit(fi::Injection::into_signal(sid, fi::kRandomBit, 10)),
        std::invalid_argument);

    fi::Injection periodic = fi::Injection::into_signal(sid, 0, 10);
    periodic.period = 20;
    // Periodic lanes never retire on first differences.
    EXPECT_THROW((void)batch.submit(periodic), std::invalid_argument);
    batch.set_mode(fi::BatchRunner::Mode::kCoverage);
    const std::uint32_t seal = batch.add_seal_rule({{sid}, {}});
    EXPECT_THROW((void)batch.submit(periodic, seal), std::invalid_argument);

    // Targets the system does not have: rejected here and by the
    // injector that replays plans, before any lane or run starts.
    const model::SystemModel& system = fx.sys.system();
    const auto calc = system.module_id("CALC");
    fi::Injection periodic_out_of_range = fi::Injection::into_signal(
        model::SignalId{static_cast<std::uint32_t>(system.signal_count())}, 0, 10);
    periodic_out_of_range.period = 20;
    const std::vector<fi::Injection> out_of_range = {
        fi::Injection::into_memory(fx.sys.sim().memory().word_count(), 0, 100, 0),
        fi::Injection::into_memory(fx.sys.sim().memory().word_count(), fi::kRandomBit, 10,
                                   20),
        fi::Injection::into_signal(
            model::SignalId{static_cast<std::uint32_t>(system.signal_count())}, 0, 10),
        fi::Injection::into_signal(model::SignalId{}, 0, 10),
        periodic_out_of_range,
        fi::Injection::into_module_input(
            calc, static_cast<std::uint32_t>(system.module(calc).input_count()), 0, 10),
        fi::Injection::into_module_input(
            model::ModuleId{static_cast<std::uint32_t>(system.module_count())}, 0, 0, 10),
    };
    for (const fi::Injection& inj : out_of_range) {
        EXPECT_THROW((void)batch.submit(inj), std::invalid_argument);
        EXPECT_THROW(fx.injector.arm({inj}), std::invalid_argument);
    }
    batch.flush();  // nothing was queued
    EXPECT_EQ(batch.stats().lanes_launched, 0U);

    // Reset-only data has no boundary to fork a one-shot lane from.
    batch.set_golden(std::make_shared<const fi::GoldenCaseData>(
        fi::capture_reset_data(fx.sys.sim(), *fx.golden)));
    (void)batch.submit(fi::Injection::into_signal(sid, 0, 10));
    EXPECT_THROW(batch.flush(), std::logic_error);
}

}  // namespace
