#include "epic/impact.hpp"

#include <cstdint>
#include <stdexcept>

namespace epea::epic {

namespace {

/// Depth-first walk over the simple forward paths from the source that
/// stops at the observer: every path that reaches the observer is one
/// distinct path prefix ending there, composed once. Paths are visited
/// in forward_paths() order and weighted in edge order, so a sink no
/// module consumes gets bit-for-bit the terminal-path product.
struct PrefixWalker {
    const PermeabilityMatrix& pm;
    const model::SystemModel& system;
    const TreeOptions& options;
    model::SignalId observer;
    std::vector<bool> on_path;
    double survive = 1.0;
    std::size_t leaves = 0;

    void walk(model::SignalId cur, double weight) {
        if (cur == observer) {
            survive *= 1.0 - weight;
            count_leaf();
            return;
        }
        on_path[cur.index()] = true;
        bool expanded = false;
        for (const model::PortRef& consumer : system.consumers_of(cur)) {
            const auto& spec = system.module(consumer.module);
            for (std::uint32_t k = 0; k < spec.output_count(); ++k) {
                const double p = pm.get(consumer.module, consumer.port, k);
                if (p <= options.epsilon) continue;
                const model::SignalId next = spec.outputs[k];
                if (on_path[next.index()]) continue;  // no signal revisits
                expanded = true;
                walk(next, weight * p);
            }
        }
        if (!expanded) count_leaf();
        on_path[cur.index()] = false;
    }

    void count_leaf() {
        if (++leaves > options.max_paths) {
            throw std::runtime_error("impact: path explosion (max_paths)");
        }
    }
};

}  // namespace

double impact(const PermeabilityMatrix& pm, model::SignalId source,
              model::SignalId observer, const TreeOptions& options) {
    if (source == observer) return 1.0;
    PrefixWalker walker{pm, pm.system(), options, observer,
                        std::vector<bool>(pm.system().signal_count(), false)};
    walker.walk(source, 1.0);
    return 1.0 - walker.survive;
}

std::vector<ImpactRow> impact_profile(const PermeabilityMatrix& pm,
                                      model::SignalId sink,
                                      const TreeOptions& options) {
    std::vector<ImpactRow> rows;
    rows.reserve(pm.system().signal_count());
    for (const model::SignalId s : pm.system().all_signals()) {
        if (s == sink) {
            rows.push_back(ImpactRow{s, std::nullopt});
        } else {
            rows.push_back(ImpactRow{s, impact(pm, s, sink, options)});
        }
    }
    return rows;
}

double criticality_wrt(const PermeabilityMatrix& pm, model::SignalId source,
                       const OutputCriticality& output, const TreeOptions& options) {
    if (output.criticality < 0.0 || output.criticality > 1.0) {
        throw std::invalid_argument("output criticality must be in [0,1]");
    }
    return output.criticality * impact(pm, source, output.output, options);
}

double criticality(const PermeabilityMatrix& pm, model::SignalId source,
                   const std::vector<OutputCriticality>& outputs,
                   const TreeOptions& options) {
    double survive = 1.0;
    for (const OutputCriticality& oc : outputs) {
        survive *= 1.0 - criticality_wrt(pm, source, oc, options);
    }
    return 1.0 - survive;
}

}  // namespace epea::epic
