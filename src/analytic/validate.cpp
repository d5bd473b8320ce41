#include "analytic/validate.hpp"

#include <algorithm>
#include <cmath>

#include "alt/tank_system.hpp"
#include "epic/impact.hpp"
#include "epic/measures.hpp"
#include "exp/paper_data.hpp"
#include "fi/batch.hpp"
#include "fi/fastpath.hpp"
#include "fi/injection.hpp"
#include "fi/injector.hpp"
#include "prove/graph.hpp"
#include "prove/prover.hpp"
#include "synth/generator.hpp"
#include "target/arrestment_system.hpp"
#include "util/rng.hpp"

namespace epea::analytic {

namespace {

double abs_diff(double a, double b) { return a > b ? a - b : b - a; }

}  // namespace

util::JsonValue EnumerationCheck::to_json() const {
    util::JsonObject o;
    o.emplace("pairs", util::JsonValue(pairs));
    o.emplace("max_abs_diff", util::JsonValue(max_abs_diff));
    o.emplace("mean_abs_diff", util::JsonValue(mean_abs_diff));
    o.emplace("exposure_max_abs_diff", util::JsonValue(exposure_max_abs_diff));
    o.emplace("all_converged", util::JsonValue(all_converged));
    util::JsonObject w;
    w.emplace("source", util::JsonValue(worst.source));
    w.emplace("observer", util::JsonValue(worst.observer));
    w.emplace("analytic", util::JsonValue(worst.analytic));
    w.emplace("reference", util::JsonValue(worst.reference));
    o.emplace("worst", util::JsonValue(std::move(w)));
    return util::JsonValue(std::move(o));
}

EnumerationCheck enumeration_check(const epic::PermeabilityMatrix& pm,
                                   const EngineOptions& engine_options) {
    const model::SystemModel& system = pm.system();
    Engine engine(pm, engine_options);
    EnumerationCheck check;
    double sum = 0.0;
    for (const model::SignalId source : system.all_signals()) {
        for (const model::SignalId observer : system.all_signals()) {
            if (source == observer) continue;
            const double composed = engine.permeability(source, observer).point;
            const double exact = epic::impact(pm, source, observer);
            const double d = abs_diff(composed, exact);
            ++check.pairs;
            sum += d;
            if (d > check.max_abs_diff) {
                check.max_abs_diff = d;
                check.worst = PairDeviation{system.signal_name(source),
                                            system.signal_name(observer), composed,
                                            exact};
            }
        }
        check.all_converged &= engine.reach(source).converged;
    }
    check.mean_abs_diff = check.pairs ? sum / static_cast<double>(check.pairs) : 0.0;
    for (const model::SignalId s : system.all_signals()) {
        const auto composed = engine.exposure(s);
        const auto exact = epic::signal_exposure(pm, s);
        if (composed.has_value() != exact.has_value()) {
            check.exposure_max_abs_diff = 1.0;  // structural disagreement
            continue;
        }
        if (composed) {
            check.exposure_max_abs_diff = std::max(
                check.exposure_max_abs_diff, abs_diff(composed->point, *exact));
        }
    }
    return check;
}

util::JsonValue ExactnessCheck::to_json() const {
    util::JsonObject o;
    o.emplace("pairs", util::JsonValue(pairs));
    o.emplace("mismatches", util::JsonValue(mismatches));
    util::JsonObject w;
    w.emplace("source", util::JsonValue(worst.source));
    w.emplace("observer", util::JsonValue(worst.observer));
    w.emplace("analytic", util::JsonValue(worst.analytic));
    w.emplace("prover", util::JsonValue(worst.reference > 0.0));
    o.emplace("worst", util::JsonValue(std::move(w)));
    return util::JsonValue(std::move(o));
}

ExactnessCheck exactness_check(const epic::PermeabilityMatrix& pm,
                               const EngineOptions& engine_options) {
    const model::SystemModel& system = pm.system();
    Engine engine(pm, engine_options);
    const prove::SignalGraph graph = prove::SignalGraph::from_matrix(pm);
    const prove::Prover prover(graph);
    ExactnessCheck check;
    for (const model::SignalId source : system.all_signals()) {
        for (const model::SignalId observer : system.all_signals()) {
            if (source == observer) continue;
            const double composed = engine.permeability(source, observer).point;
            const bool reaches =
                prover.path_exists(static_cast<std::uint32_t>(source.index()),
                                   static_cast<std::uint32_t>(observer.index()));
            ++check.pairs;
            if ((composed > 0.0) != reaches) {
                if (check.mismatches++ == 0) {
                    check.worst = PairDeviation{system.signal_name(source),
                                                system.signal_name(observer),
                                                composed, reaches ? 1.0 : 0.0};
                }
            }
        }
    }
    return check;
}

epic::PermeabilityMatrix uniform_matrix(const model::SystemModel& system, double p) {
    epic::PermeabilityMatrix pm(system);
    for (const epic::PairEntry& e : pm.entries()) {
        pm.set(e.module, e.in_port, e.out_port, p);
    }
    return pm;
}

util::JsonValue CampaignCheck::to_json() const {
    util::JsonObject o;
    util::JsonArray row_array;
    for (const CampaignRow& r : rows) {
        util::JsonObject ro;
        ro.emplace("input", util::JsonValue(r.input));
        ro.emplace("output", util::JsonValue(r.output));
        ro.emplace("measured", util::JsonValue(r.measured.point));
        ro.emplace("measured_lo", util::JsonValue(r.measured.lo));
        ro.emplace("measured_hi", util::JsonValue(r.measured.hi));
        ro.emplace("active", util::JsonValue(r.measured.trials));
        ro.emplace("analytic", util::JsonValue(r.analytic.point));
        ro.emplace("analytic_lo", util::JsonValue(r.analytic.lo));
        ro.emplace("analytic_hi", util::JsonValue(r.analytic.hi));
        ro.emplace("abs_diff", util::JsonValue(r.abs_diff()));
        row_array.emplace_back(std::move(ro));
    }
    o.emplace("rows", util::JsonValue(std::move(row_array)));
    o.emplace("max_abs_diff", util::JsonValue(max_abs_diff));
    o.emplace("runs", util::JsonValue(runs));
    return util::JsonValue(std::move(o));
}

CampaignCheck campaign_check(const exp::CampaignOptions& options,
                             const EngineOptions& engine_options) {
    target::ArrestmentSystem sys;
    const epic::PermeabilityMatrix pm =
        exp::estimate_arrestment_permeability(sys, options);
    Engine engine(pm, engine_options);
    const model::SystemModel& system = sys.system();

    const std::vector<model::SignalId> inputs =
        system.signals_with_role(model::SignalRole::kSystemInput);
    const std::vector<model::SignalId> outputs =
        system.signals_with_role(model::SignalRole::kSystemOutput);

    // End-to-end measurement with the same sizing: inject every bit of
    // every system input at stratified moments and record whether the
    // system output ever deviates from the golden run.
    struct Count {
        std::uint64_t affected = 0;
        std::uint64_t active = 0;
    };
    std::vector<std::vector<Count>> counts(inputs.size(),
                                           std::vector<Count>(outputs.size()));

    const auto cases = target::standard_test_cases();
    const std::size_t case_count = std::min(
        options.case_count, cases.size() - std::min(options.case_first, cases.size()));
    fi::Injector injector(sys.sim());
    fi::BatchRunner batch(sys.sim(), injector);
    batch.set_mode(fi::BatchRunner::Mode::kPermeability);
    struct Tally {
        std::size_t input = 0;
        std::size_t ticket = 0;
    };
    std::vector<Tally> tallies;

    CampaignCheck check;
    for (std::size_t c = 0; c < case_count; ++c) {
        const std::size_t case_id = options.case_first + c;
        // A stream of its own (offset by a fixed tag) — the end-to-end
        // prong is an independent measurement, not a replay of the
        // estimator's module-level streams.
        std::uint64_t stream = options.seed + 0xe2ee2eULL + case_id;
        util::Rng time_rng(util::splitmix64(stream));
        sys.configure(cases[case_id]);
        injector.disarm();
        const bool snapshots = options.use_batch && sys.sim().snapshot_supported();
        batch.set_golden(nullptr);  // release the previous case's golden first
        const auto golden = std::make_shared<const fi::GoldenCaseData>(
            fi::capture_golden_data(sys.sim(), options.max_ticks, snapshots));
        batch.set_golden(golden);
        const fi::GoldenRun& gr = golden->run;

        batch.clear();
        tallies.clear();
        for (std::size_t si = 0; si < inputs.size(); ++si) {
            const unsigned width = system.signal(inputs[si]).width;
            for (unsigned bit = 0; bit < width; ++bit) {
                const auto ticks =
                    fi::spread_ticks(0, gr.length, options.times_per_bit, &time_rng);
                for (const runtime::Tick t : ticks) {
                    const auto inj = fi::Injection::into_signal(inputs[si], bit, t);
                    tallies.push_back({si, batch.submit(inj)});
                }
            }
        }

        batch.flush();
        for (const Tally& tl : tallies) {
            ++check.runs;
            const fi::BatchOutcome& oc = batch.outcome(tl.ticket);
            if (!oc.fired) continue;  // inactive
            // A run whose length differs from the golden run's deviates on
            // every output at its end. The length is known when the run
            // finished or hit the budget; a lane retired at the golden end
            // while still running would have outlived the golden run.
            const bool length_known = oc.finished || oc.end_tick >= options.max_ticks;
            const bool length_differs = !length_known || oc.end_tick != gr.length;
            for (std::size_t oi = 0; oi < outputs.size(); ++oi) {
                ++counts[tl.input][oi].active;
                if (length_differs ||
                    oc.first_diff[outputs[oi].index()] != runtime::kInvalidTick) {
                    ++counts[tl.input][oi].affected;
                }
            }
        }
    }
    injector.disarm();

    for (std::size_t si = 0; si < inputs.size(); ++si) {
        for (std::size_t oi = 0; oi < outputs.size(); ++oi) {
            CampaignRow row;
            row.input = system.signal_name(inputs[si]);
            row.output = system.signal_name(outputs[oi]);
            row.measured =
                util::wilson_interval(counts[si][oi].affected, counts[si][oi].active,
                                      engine_options.z);
            row.analytic = engine.permeability(inputs[si], outputs[oi]);
            check.max_abs_diff = std::max(check.max_abs_diff, row.abs_diff());
            check.rows.push_back(std::move(row));
        }
    }
    return check;
}

util::JsonValue SynthSweep::to_json() const {
    util::JsonObject o;
    o.emplace("graphs", util::JsonValue(graphs));
    o.emplace("cyclic_graphs", util::JsonValue(cyclic_graphs));
    o.emplace("max_abs_diff_acyclic", util::JsonValue(max_abs_diff_acyclic));
    o.emplace("max_abs_diff_cyclic", util::JsonValue(max_abs_diff_cyclic));
    o.emplace("all_converged", util::JsonValue(all_converged));
    o.emplace("exactness_mismatches", util::JsonValue(exactness_mismatches));
    return util::JsonValue(std::move(o));
}

SynthSweep synth_sweep(std::size_t graphs, std::uint64_t seed,
                       const EngineOptions& engine_options) {
    SynthSweep sweep;
    sweep.graphs = graphs;
    for (std::size_t g = 0; g < graphs; ++g) {
        synth::LayeredOptions lopt;
        lopt.seed = seed + g;
        const bool cyclic = g % 2 == 1;  // odd graphs get feedback edges
        lopt.cycle_density = cyclic ? 0.25 : 0.0;
        const synth::SyntheticSystem sys = synth::random_layered_system(lopt);
        const EnumerationCheck check = enumeration_check(sys.matrix, engine_options);
        sweep.exactness_mismatches +=
            exactness_check(sys.matrix, engine_options).mismatches;
        if (cyclic) {
            ++sweep.cyclic_graphs;
            sweep.max_abs_diff_cyclic =
                std::max(sweep.max_abs_diff_cyclic, check.max_abs_diff);
        } else {
            sweep.max_abs_diff_acyclic =
                std::max(sweep.max_abs_diff_acyclic, check.max_abs_diff);
        }
        sweep.all_converged &= check.all_converged;
    }
    return sweep;
}

ValidateResult validate_arrestment(const ValidateOptions& options) {
    ValidateResult result;
    util::JsonObject report;

    // Prong 1: Table-1 matrix, engine vs exact enumeration (Table 2/5).
    target::ArrestmentSystem sys;
    const epic::PermeabilityMatrix paper = exp::paper_matrix(sys.system());
    const EnumerationCheck enumeration = enumeration_check(paper, options.engine);
    const bool enum_pass =
        enumeration.max_abs_diff <= options.enumeration_tolerance &&
        enumeration.exposure_max_abs_diff <= 1e-9 && enumeration.all_converged;
    {
        util::JsonObject prong;
        prong.emplace("check", enumeration.to_json());
        prong.emplace("tolerance", util::JsonValue(options.enumeration_tolerance));
        prong.emplace("pass", util::JsonValue(enum_pass));
        report.emplace("enumeration", util::JsonValue(std::move(prong)));
    }
    result.pass = enum_pass;

    // Prong 1b: structural exactness on the hand-written targets — engine
    // reach positivity must agree with the prover's path-existence on the
    // paper matrix and on a uniform tank matrix (the tank ships without a
    // measured matrix, so every structural pair gets permeability 0.5).
    {
        const ExactnessCheck paper_exact = exactness_check(paper, options.engine);
        const model::SystemModel tank = alt::make_tank_model();
        const ExactnessCheck tank_exact =
            exactness_check(uniform_matrix(tank, 0.5), options.engine);
        const bool exact_pass =
            paper_exact.mismatches == 0 && tank_exact.mismatches == 0;
        util::JsonObject prong;
        prong.emplace("paper", paper_exact.to_json());
        prong.emplace("tank", tank_exact.to_json());
        prong.emplace("pass", util::JsonValue(exact_pass));
        report.emplace("exactness", util::JsonValue(std::move(prong)));
        result.pass = result.pass && exact_pass;
    }

    // Prong 2: measured matrix, engine vs end-to-end campaign truth.
    if (options.run_campaign) {
        const CampaignCheck campaign = campaign_check(options.campaign, options.engine);
        const bool campaign_pass = campaign.max_abs_diff <= options.campaign_tolerance;
        util::JsonObject prong;
        prong.emplace("check", campaign.to_json());
        prong.emplace("cases", util::JsonValue(options.campaign.case_count));
        prong.emplace("times_per_bit", util::JsonValue(options.campaign.times_per_bit));
        prong.emplace("tolerance", util::JsonValue(options.campaign_tolerance));
        prong.emplace("pass", util::JsonValue(campaign_pass));
        report.emplace("campaign", util::JsonValue(std::move(prong)));
        result.pass = result.pass && campaign_pass;
    }

    // Prong 3: synthetic corpus — divergence map, not a gate (cyclic
    // fixpoint vs simple-path enumeration *should* disagree; the report
    // quantifies by how much). Only convergence is gated.
    if (options.run_synth) {
        const SynthSweep sweep =
            synth_sweep(options.synth_graphs, options.synth_seed, options.engine);
        const bool synth_pass =
            sweep.all_converged && sweep.exactness_mismatches == 0;
        util::JsonObject prong;
        prong.emplace("check", sweep.to_json());
        prong.emplace("pass", util::JsonValue(synth_pass));
        report.emplace("synth", util::JsonValue(std::move(prong)));
        result.pass = result.pass && synth_pass;
    }

    report.emplace("pass", util::JsonValue(result.pass));
    result.report = util::JsonValue(std::move(report));
    return result;
}

}  // namespace epea::analytic
