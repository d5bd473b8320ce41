#include "campaign/checkpoint.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "campaign/json.hpp"
#include "util/stats.hpp"

namespace epea::campaign {

namespace {

JsonValue severe_to_json(const exp::SevereCoverageResult& r) {
    JsonObject o;
    o.emplace("runs", JsonValue(r.runs));
    o.emplace("failures", JsonValue(r.failures));
    o.emplace("ram_locations", JsonValue(r.ram_locations));
    o.emplace("stack_locations", JsonValue(r.stack_locations));
    JsonArray sets;
    for (const auto& set : r.sets) {
        JsonObject so;
        so.emplace("name", JsonValue(set.set_name));
        JsonArray cells;
        for (const auto& region : set.cells) {
            for (const auto& cell : region) {
                JsonObject co;
                co.emplace("n", JsonValue(cell.n));
                co.emplace("detected", JsonValue(cell.detected));
                cells.emplace_back(std::move(co));
            }
        }
        so.emplace("cells", JsonValue(std::move(cells)));
        sets.emplace_back(std::move(so));
    }
    o.emplace("sets", JsonValue(std::move(sets)));
    return JsonValue(std::move(o));
}

exp::SevereCoverageResult severe_from_json(const JsonValue& v) {
    exp::SevereCoverageResult r;
    r.runs = static_cast<std::uint64_t>(v.at("runs").as_int());
    r.failures = static_cast<std::uint64_t>(v.at("failures").as_int());
    r.ram_locations = static_cast<std::size_t>(v.at("ram_locations").as_int());
    r.stack_locations = static_cast<std::size_t>(v.at("stack_locations").as_int());
    for (const auto& sv : v.at("sets").as_array()) {
        exp::SevereSetResult set;
        set.set_name = sv.at("name").as_string();
        const auto& cells = sv.at("cells").as_array();
        if (cells.size() != 9) throw std::runtime_error("severe set needs 9 cells");
        std::size_t i = 0;
        for (auto& region : set.cells) {
            for (auto& cell : region) {
                cell.n = static_cast<std::uint64_t>(cells[i].at("n").as_int());
                cell.detected =
                    static_cast<std::uint64_t>(cells[i].at("detected").as_int());
                ++i;
            }
        }
        r.sets.push_back(std::move(set));
    }
    return r;
}

JsonValue recovery_to_json(const exp::RecoveryResult& r) {
    JsonObject o;
    o.emplace("runs", JsonValue(r.runs));
    o.emplace("failures_baseline", JsonValue(r.failures_baseline));
    o.emplace("failures_with_erm", JsonValue(r.failures_with_erm));
    o.emplace("repairs", JsonValue(r.repairs));
    o.emplace("erm_rom", JsonValue(static_cast<std::int64_t>(r.erm_cost.rom)));
    o.emplace("erm_ram", JsonValue(static_cast<std::int64_t>(r.erm_cost.ram)));
    return JsonValue(std::move(o));
}

exp::RecoveryResult recovery_from_json(const JsonValue& v) {
    exp::RecoveryResult r;
    r.runs = static_cast<std::uint64_t>(v.at("runs").as_int());
    r.failures_baseline = static_cast<std::uint64_t>(v.at("failures_baseline").as_int());
    r.failures_with_erm = static_cast<std::uint64_t>(v.at("failures_with_erm").as_int());
    r.repairs = static_cast<std::uint64_t>(v.at("repairs").as_int());
    r.erm_cost.rom = static_cast<std::uint32_t>(v.at("erm_rom").as_int());
    r.erm_cost.ram = static_cast<std::uint32_t>(v.at("erm_ram").as_int());
    return r;
}

JsonValue stats_to_json(const util::RunningStats& s) {
    JsonObject o;
    o.emplace("n", JsonValue(s.count()));
    o.emplace("mean", JsonValue(s.mean()));
    o.emplace("m2", JsonValue(s.m2()));
    o.emplace("sum", JsonValue(s.sum()));
    o.emplace("min", JsonValue(s.min()));
    o.emplace("max", JsonValue(s.max()));
    return JsonValue(std::move(o));
}

util::RunningStats stats_from_json(const JsonValue& v) {
    return util::RunningStats::restore(
        static_cast<std::size_t>(v.at("n").as_int()), v.at("mean").as_double(),
        v.at("m2").as_double(), v.at("sum").as_double(), v.at("min").as_double(),
        v.at("max").as_double());
}

JsonValue coverage_row_to_json(const exp::InputCoverageRow& row) {
    JsonObject o;
    o.emplace("signal", JsonValue(row.signal));
    o.emplace("injected", JsonValue(row.injected));
    o.emplace("active", JsonValue(row.active));
    o.emplace("detected_any", JsonValue(row.detected_any));
    JsonArray per_ea;
    for (const std::uint64_t d : row.detected_per_ea) per_ea.emplace_back(d);
    o.emplace("per_ea", JsonValue(std::move(per_ea)));
    JsonArray per_subset;
    for (const std::uint64_t d : row.detected_per_subset) per_subset.emplace_back(d);
    o.emplace("per_subset", JsonValue(std::move(per_subset)));
    o.emplace("latency", stats_to_json(row.latency));
    return JsonValue(std::move(o));
}

exp::InputCoverageRow coverage_row_from_json(const JsonValue& v) {
    exp::InputCoverageRow row;
    row.signal = v.at("signal").as_string();
    row.injected = static_cast<std::uint64_t>(v.at("injected").as_int());
    row.active = static_cast<std::uint64_t>(v.at("active").as_int());
    row.detected_any = static_cast<std::uint64_t>(v.at("detected_any").as_int());
    for (const auto& d : v.at("per_ea").as_array()) {
        row.detected_per_ea.push_back(static_cast<std::uint64_t>(d.as_int()));
    }
    for (const auto& d : v.at("per_subset").as_array()) {
        row.detected_per_subset.push_back(static_cast<std::uint64_t>(d.as_int()));
    }
    row.latency = stats_from_json(v.at("latency"));
    return row;
}

JsonValue input_to_json(const exp::InputCoverageResult& r) {
    JsonObject o;
    JsonArray eas;
    for (const auto& n : r.ea_names) eas.emplace_back(n);
    o.emplace("ea_names", JsonValue(std::move(eas)));
    JsonArray subs;
    for (const auto& n : r.subset_names) subs.emplace_back(n);
    o.emplace("subset_names", JsonValue(std::move(subs)));
    JsonArray rows;
    for (const auto& row : r.rows) rows.emplace_back(coverage_row_to_json(row));
    o.emplace("rows", JsonValue(std::move(rows)));
    o.emplace("all", coverage_row_to_json(r.all));
    return JsonValue(std::move(o));
}

exp::InputCoverageResult input_from_json(const JsonValue& v) {
    exp::InputCoverageResult r;
    for (const auto& n : v.at("ea_names").as_array()) {
        r.ea_names.push_back(n.as_string());
    }
    for (const auto& n : v.at("subset_names").as_array()) {
        r.subset_names.push_back(n.as_string());
    }
    for (const auto& row : v.at("rows").as_array()) {
        r.rows.push_back(coverage_row_from_json(row));
    }
    r.all = coverage_row_from_json(v.at("all"));
    return r;
}

JsonValue fastpath_to_json(const fi::FastPathStats& s) {
    JsonObject o;
    o.emplace("full_runs", JsonValue(s.full_runs));
    o.emplace("forked_runs", JsonValue(s.forked_runs));
    o.emplace("pruned_runs", JsonValue(s.pruned_runs));
    o.emplace("skipped_runs", JsonValue(s.skipped_runs));
    o.emplace("ticks_executed", JsonValue(s.ticks_executed));
    o.emplace("ticks_saved", JsonValue(s.ticks_saved));
    o.emplace("cache_hits", JsonValue(s.cache_hits));
    o.emplace("cache_misses", JsonValue(s.cache_misses));
    o.emplace("lanes_launched", JsonValue(s.lanes_launched));
    o.emplace("lanes_retired_pruned", JsonValue(s.lanes_retired_pruned));
    o.emplace("lanes_retired_end", JsonValue(s.lanes_retired_end));
    o.emplace("lanes_retired_sealed", JsonValue(s.lanes_retired_sealed));
    o.emplace("lanes_retired_merged", JsonValue(s.lanes_retired_merged));
    JsonArray widths;
    for (const std::uint64_t n : s.batch_widths) widths.emplace_back(n);
    o.emplace("batch_widths", JsonValue(std::move(widths)));
    return JsonValue(std::move(o));
}

fi::FastPathStats fastpath_from_json(const JsonValue& v) {
    fi::FastPathStats s;
    s.full_runs = static_cast<std::uint64_t>(v.at("full_runs").as_int());
    s.forked_runs = static_cast<std::uint64_t>(v.at("forked_runs").as_int());
    s.pruned_runs = static_cast<std::uint64_t>(v.at("pruned_runs").as_int());
    s.skipped_runs = static_cast<std::uint64_t>(v.at("skipped_runs").as_int());
    s.ticks_executed = static_cast<std::uint64_t>(v.at("ticks_executed").as_int());
    s.ticks_saved = static_cast<std::uint64_t>(v.at("ticks_saved").as_int());
    s.cache_hits = static_cast<std::uint64_t>(v.at("cache_hits").as_int());
    s.cache_misses = static_cast<std::uint64_t>(v.at("cache_misses").as_int());
    // Lane counters arrived with the batch kernel; absent in checkpoints
    // written by earlier builds.
    const auto opt_u64 = [&v](const char* key) -> std::uint64_t {
        const JsonValue* f = v.find(key);
        return f ? static_cast<std::uint64_t>(f->as_int()) : 0;
    };
    s.lanes_launched = opt_u64("lanes_launched");
    s.lanes_retired_pruned = opt_u64("lanes_retired_pruned");
    s.lanes_retired_end = opt_u64("lanes_retired_end");
    s.lanes_retired_sealed = opt_u64("lanes_retired_sealed");
    s.lanes_retired_merged = opt_u64("lanes_retired_merged");
    if (const JsonValue* widths = v.find("batch_widths")) {
        const JsonArray& arr = widths->as_array();
        for (std::size_t b = 0; b < s.batch_widths.size() && b < arr.size(); ++b) {
            s.batch_widths[b] = static_cast<std::uint64_t>(arr[b].as_int());
        }
    }
    return s;
}

}  // namespace

std::string ShardResult::to_json() const {
    JsonObject o;
    o.emplace("shard", JsonValue(shard));
    o.emplace("kind", JsonValue(to_string(kind)));
    JsonArray ids;
    for (const std::size_t c : case_ids) ids.emplace_back(c);
    o.emplace("case_ids", JsonValue(std::move(ids)));
    o.emplace("runs", JsonValue(runs));
    o.emplace("wall_seconds", JsonValue(wall_seconds));
    o.emplace("fastpath", fastpath_to_json(fastpath));
    o.emplace("threads", JsonValue(threads));

    switch (kind) {
        case CampaignKind::kPermeability: {
            JsonArray arr;
            for (const auto& p : pairs) {
                JsonObject po;
                po.emplace("module", JsonValue(p.module));
                po.emplace("in_port", JsonValue(static_cast<std::int64_t>(p.in_port)));
                po.emplace("out_port", JsonValue(static_cast<std::int64_t>(p.out_port)));
                po.emplace("affected", JsonValue(p.affected));
                po.emplace("active", JsonValue(p.active));
                arr.emplace_back(std::move(po));
            }
            o.emplace("pairs", JsonValue(std::move(arr)));
            break;
        }
        case CampaignKind::kSevere:
            o.emplace("severe", severe_to_json(severe));
            break;
        case CampaignKind::kRecovery:
            o.emplace("recovery", recovery_to_json(recovery));
            break;
        case CampaignKind::kInput:
            o.emplace("input", input_to_json(input));
            break;
    }
    return JsonValue(std::move(o)).dump();
}

ShardResult ShardResult::from_json(const std::string& text) {
    const JsonValue root = JsonValue::parse(text);
    ShardResult r;
    r.shard = static_cast<std::size_t>(root.at("shard").as_int());
    r.kind = campaign_kind_from_string(root.at("kind").as_string());
    for (const auto& v : root.at("case_ids").as_array()) {
        r.case_ids.push_back(static_cast<std::size_t>(v.as_int()));
    }
    r.runs = static_cast<std::uint64_t>(root.at("runs").as_int());
    r.wall_seconds = root.at("wall_seconds").as_double();
    // Optional fields: absent in checkpoints written before the fast path
    // existed — such shards still load and merge (counters stay zero).
    if (const JsonValue* fp = root.find("fastpath")) {
        r.fastpath = fastpath_from_json(*fp);
    }
    if (const JsonValue* th = root.find("threads")) {
        r.threads = static_cast<std::size_t>(th->as_int());
    }

    switch (r.kind) {
        case CampaignKind::kPermeability:
            for (const auto& v : root.at("pairs").as_array()) {
                PairCountRecord p;
                p.module = v.at("module").as_string();
                p.in_port = static_cast<std::uint32_t>(v.at("in_port").as_int());
                p.out_port = static_cast<std::uint32_t>(v.at("out_port").as_int());
                p.affected = static_cast<std::uint64_t>(v.at("affected").as_int());
                p.active = static_cast<std::uint64_t>(v.at("active").as_int());
                r.pairs.push_back(std::move(p));
            }
            break;
        case CampaignKind::kSevere:
            r.severe = severe_from_json(root.at("severe"));
            break;
        case CampaignKind::kRecovery:
            r.recovery = recovery_from_json(root.at("recovery"));
            break;
        case CampaignKind::kInput:
            r.input = input_from_json(root.at("input"));
            break;
    }
    return r;
}

void atomic_write_file(const std::string& path, const std::string& content) {
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) throw std::runtime_error("cannot write " + tmp);
        out << content;
        out.flush();
        if (!out) throw std::runtime_error("short write to " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error("cannot rename " + tmp + " -> " + path);
    }
}

std::string shard_file_name(std::size_t shard) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "shard-%03zu.json", shard);
    return buf;
}

void save_shard(const std::string& dir, const ShardResult& result) {
    atomic_write_file(dir + "/" + shard_file_name(result.shard),
                      result.to_json() + "\n");
}

std::optional<ShardResult> load_shard(const std::string& dir, std::size_t shard) {
    std::ifstream in(dir + "/" + shard_file_name(shard), std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
        ShardResult r = ShardResult::from_json(buf.str());
        if (r.shard != shard) return std::nullopt;  // misnamed/foreign file
        return r;
    } catch (const std::runtime_error&) {
        return std::nullopt;  // corrupt checkpoint: treat as absent
    }
}

}  // namespace epea::campaign
