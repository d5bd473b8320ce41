#include "target/batch_kernel.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <unordered_map>

#include "target/modules.hpp"
#include "util/bitops.hpp"

namespace epea::target {

namespace {

[[nodiscard]] constexpr std::int32_t clampi(std::int32_t v, std::int32_t lo,
                                            std::int32_t hi) noexcept {
    return v < lo ? lo : (v > hi ? hi : v);
}

[[nodiscard]] double getd(const std::uint64_t* row, std::size_t lane) noexcept {
    return std::bit_cast<double>(row[lane]);
}

void setd(std::uint64_t* row, std::size_t lane, double v) noexcept {
    row[lane] = std::bit_cast<std::uint64_t>(v);
}

// Plant state-stream word indices (Plant::save_state order).
enum EnvWord : std::size_t {
    kEnvSpeed = 0,
    kEnvDistance,
    kEnvPressure,
    kEnvCmd,
    kEnvPulseAccum,
    kEnvPacnt,
    kEnvTic1,
    kEnvTcnt,
    kEnvSettle,
    kEnvStopped,
    kEnvFinalDistance,
    kEnvPeakRetardation,
    kEnvPeakForceRatio,
    kEnvRetardationExceeded,
    kEnvForceExceeded,
    kEnvOverranRunway,
    kEnvWords,
};

}  // namespace

bool ArrestmentBatchBackend::resolve() {
    if (resolved_ != 0) return resolved_ > 0;
    resolved_ = -1;

    const model::SystemModel& model = sim_->system();
    if (model.signal_count() != 14 || model.module_count() != 6) return false;

    const auto sig = [&](const char* name, std::size_t& out) {
        const auto id = model.find_signal(name);
        if (!id) return false;
        out = id->index();
        return true;
    };
    if (!sig("PACNT", s_pacnt_) || !sig("TIC1", s_tic1_) || !sig("TCNT", s_tcnt_) ||
        !sig("ADC", s_adc_) || !sig("ms_slot_nbr", s_slot_) || !sig("mscnt", s_mscnt_) ||
        !sig("pulscnt", s_puls_) || !sig("slow_speed", s_slow_) ||
        !sig("stopped", s_stop_) || !sig("i", s_i_) || !sig("SetValue", s_set_) ||
        !sig("IsValue", s_is_) || !sig("OutValue", s_out_) || !sig("TOC2", s_toc2_)) {
        return false;
    }
    sig_width_.resize(model.signal_count());
    for (std::size_t s = 0; s < model.signal_count(); ++s) {
        sig_width_[s] = model.signal(model::SignalId{static_cast<std::uint32_t>(s)}).width;
    }

    static constexpr std::array<const char*, 6> kModuleOrder = {
        "CLOCK", "DIST_S", "CALC", "PRES_S", "V_REG", "PRES_A"};
    for (std::size_t m = 0; m < kModuleOrder.size(); ++m) {
        const auto mid = model.find_module(kModuleOrder[m]);
        if (!mid || mid->index() != m) return false;
    }

    const runtime::MemoryMap& memory = sim_->memory();
    std::unordered_map<std::string_view, std::size_t> by_label;
    mem_width_.resize(memory.word_count());
    for (std::size_t w = 0; w < memory.word_count(); ++w) {
        const runtime::MemWord& word = memory.word(w);
        by_label.emplace(word.label, w);
        mem_width_[w] = word.width;
    }
    if (by_label.size() != memory.word_count()) return false;  // duplicate labels

    const auto mem = [&](const std::string& label, std::size_t& out) {
        const auto it = by_label.find(label);
        if (it == by_label.end()) return false;
        out = it->second;
        return true;
    };
    const auto mem_run = [&](const std::string& stem, std::size_t count,
                             std::size_t& first) {
        // An indexed register block must occupy consecutive word slots so
        // the kernel can address element k as row (first + k).
        if (!mem(stem + "[0]", first)) return false;
        for (std::size_t k = 1; k < count; ++k) {
            std::size_t idx = 0;
            if (!mem(stem + "[" + std::to_string(k) + "]", idx) || idx != first + k) {
                return false;
            }
        }
        return true;
    };

    if (!mem("CLOCK.arg_i", f_clock_i_) || !mem("DIST_S.arg_PACNT", f_dist_pacnt_) ||
        !mem("DIST_S.arg_TIC1", f_dist_tic1_) || !mem("DIST_S.arg_TCNT", f_dist_tcnt_) ||
        !mem("CALC.arg_i", f_calc_i_) || !mem("CALC.arg_mscnt", f_calc_mscnt_) ||
        !mem("CALC.arg_pulscnt", f_calc_puls_) ||
        !mem("CALC.arg_slow_speed", f_calc_slow_) ||
        !mem("CALC.arg_stopped", f_calc_stop_) || !mem("PRES_S.arg_ADC", f_press_adc_) ||
        !mem("V_REG.arg_SetValue", f_vreg_set_) || !mem("V_REG.arg_IsValue", f_vreg_is_) ||
        !mem("PRES_A.arg_OutValue", f_presa_out_)) {
        return false;
    }
    if (!mem("CLOCK.mscnt", m_clock_mscnt_) ||
        !mem_run("CLOCK.slot_map", ClockModule::kSlots, m_clock_slot0_) ||
        !mem("DIST_S.prev", m_d_prev_) || !mem("DIST_S.pulscnt", m_d_puls_) ||
        !mem_run("DIST_S.bin", DistSModule::kBins, m_d_bin0_) ||
        !mem("DIST_S.acc", m_d_acc_) || !mem("DIST_S.phase", m_d_phase_) ||
        !mem("DIST_S.bin_idx", m_d_binidx_) || !mem("DIST_S.rate", m_d_rate_) ||
        !mem("DIST_S.slow_deb", m_d_slowdeb_) || !mem("DIST_S.stop_deb", m_d_stopdeb_) ||
        !mem("DIST_S.stop_latch", m_d_latch_) || !mem("DIST_S.delta", m_d_delta_) ||
        !mem_run("CALC.prog", CalcModule::kProgSteps, m_c_prog0_) ||
        !mem("CALC.base", m_c_base_) || !mem("CALC.cap", m_c_cap_) ||
        !mem_run("PRES_S.buf", PresSModule::kTaps, m_p_buf0_) ||
        !mem("PRES_S.idx", m_p_idx_) || !mem("PRES_S.filt", m_p_filt_) ||
        !mem("PRES_S.med", m_p_med_) || !mem("V_REG.integ", m_v_integ_) ||
        !mem("V_REG.prev_out", m_v_prev_) || !mem("V_REG.err", m_v_err_) ||
        !mem("PRES_A.cmd", m_a_cmd_) || !mem("PRES_A.tgt", m_a_tgt_)) {
        return false;
    }

    frame_word_.assign(model.module_count(), {});
    frame_width_.assign(model.module_count(), {});
    frame_src_.assign(model.module_count(), {});
    for (const model::ModuleId mid : model.all_modules()) {
        const auto& spec = model.module(mid);
        for (const model::SignalId in : spec.inputs) {
            std::size_t idx = 0;
            if (!mem(spec.name + ".arg_" + model.signal_name(in), idx)) return false;
            frame_word_[mid.index()].push_back(idx);
            frame_width_[mid.index()].push_back(model.signal(in).width);
            frame_src_[mid.index()].push_back(in.index());
        }
    }

    resolved_ = 1;
    return true;
}

bool ArrestmentBatchBackend::begin(runtime::BatchState& state) {
    if (!resolve()) return false;
    const runtime::SnapshotLayout& layout = state.layout();
    if (layout.signals != sim_->system().signal_count() ||
        layout.memory != sim_->memory().word_count() || layout.behaviours != 1 ||
        layout.environment != kEnvWords || layout.recoverers != 0 ||
        !sim_->recoverers().empty()) {
        return false;
    }
    eas_.clear();
    for (const runtime::SignalMonitor* m : sim_->monitors()) {
        const auto* ea = dynamic_cast<const ea::ExecutableAssertion*>(m);
        if (!ea) return false;
        eas_.push_back(EaRef{ea->signal().index(), ea->params()});
    }
    return layout.monitors == eas_.size() * 4;
}

void ArrestmentBatchBackend::step(runtime::BatchState& st, runtime::Tick now) {
    const std::size_t n = st.live();
    if (n == 0) return;
    const std::size_t W = st.width();
    std::uint32_t* const sig0 = st.signals_row(0);
    std::uint32_t* const mem0 = st.memory_row(0);
    const auto sg = [&](std::size_t s) noexcept { return sig0 + s * W; };
    const auto mw = [&](std::size_t w) noexcept { return mem0 + w * W; };

    // ------------------------------------------------------ plant sense
    // Transcribes Plant::sense exactly; the report booleans latch (only
    // ever set), matching the scalar FailureReport updates.
    {
        std::uint64_t* const e_speed = st.environment_row(kEnvSpeed);
        std::uint64_t* const e_dist = st.environment_row(kEnvDistance);
        std::uint64_t* const e_press = st.environment_row(kEnvPressure);
        std::uint64_t* const e_cmd = st.environment_row(kEnvCmd);
        std::uint64_t* const e_pulse = st.environment_row(kEnvPulseAccum);
        std::uint64_t* const e_pacnt = st.environment_row(kEnvPacnt);
        std::uint64_t* const e_tic1 = st.environment_row(kEnvTic1);
        std::uint64_t* const e_tcnt = st.environment_row(kEnvTcnt);
        std::uint64_t* const e_settle = st.environment_row(kEnvSettle);
        std::uint64_t* const e_stopped = st.environment_row(kEnvStopped);
        std::uint64_t* const e_final = st.environment_row(kEnvFinalDistance);
        std::uint64_t* const e_peakg = st.environment_row(kEnvPeakRetardation);
        std::uint64_t* const e_peakr = st.environment_row(kEnvPeakForceRatio);
        std::uint64_t* const e_rexc = st.environment_row(kEnvRetardationExceeded);
        std::uint64_t* const e_fexc = st.environment_row(kEnvForceExceeded);
        std::uint64_t* const e_over = st.environment_row(kEnvOverranRunway);
        std::uint32_t* const o_pacnt = sg(s_pacnt_);
        std::uint32_t* const o_tic1 = sg(s_tic1_);
        std::uint32_t* const o_tcnt = sg(s_tcnt_);
        std::uint32_t* const o_adc = sg(s_adc_);
        const unsigned w_pacnt = sig_width_[s_pacnt_];
        const unsigned w_tic1 = sig_width_[s_tic1_];
        const unsigned w_tcnt = sig_width_[s_tcnt_];
        const unsigned w_adc = sig_width_[s_adc_];
        // Locals defeat the conservative aliasing between the lane-row
        // stores and the plain-word members read every iteration.
        const double tau = pc_.pressure_tau_ms;
        const double full_force = pc_.full_force_n;
        const double mass = tc_.mass_kg;
        const double retard_limit = pc_.retardation_limit_g * kGravity;
        const double stop_speed = pc_.stop_speed_mps;
        const double runway_limit = pc_.runway_limit_m;
        const double pulses_per_m = pc_.pulses_per_m;
        const auto tcnt_step = static_cast<std::uint32_t>(pc_.tcnt_per_ms);

        for (std::size_t lane = 0; lane < n; ++lane) {
            double pressure = getd(e_press, lane);
            pressure += (getd(e_cmd, lane) - pressure) / tau;
            double speed = getd(e_speed, lane);
            double distance = getd(e_dist, lane);

            if (speed > 0.0) {
                const double force_n = pressure * full_force;
                const double a = force_n / mass;
                const double ratio = force_n / max_retardation_force_n(mass, speed);
                setd(e_peakg, lane, std::max(getd(e_peakg, lane), a / kGravity));
                setd(e_peakr, lane, std::max(getd(e_peakr, lane), ratio));
                if (a > retard_limit) e_rexc[lane] = 1;
                if (ratio >= 1.0) e_fexc[lane] = 1;

                speed -= a * 0.001;
                if (speed <= stop_speed) {
                    speed = 0.0;
                    e_stopped[lane] = 1;
                }
                distance += speed * 0.001;
            } else {
                e_settle[lane] += 1;
            }
            setd(e_final, lane, distance);
            if (distance > runway_limit) e_over[lane] = 1;

            double pulse = getd(e_pulse, lane);
            pulse += speed * 0.001 * pulses_per_m;
            std::uint32_t pacnt = static_cast<std::uint32_t>(e_pacnt[lane]);
            std::uint32_t tic1 = static_cast<std::uint32_t>(e_tic1[lane]);
            std::uint32_t tcnt = static_cast<std::uint32_t>(e_tcnt[lane]);
            if (pulse >= 1.0) {
                const auto pulses = static_cast<std::uint32_t>(pulse);
                pulse -= pulses;
                pacnt = (pacnt + pulses) & 0xffU;
                tic1 = tcnt;
            }
            tcnt = (tcnt + tcnt_step) & 0xffffU;

            setd(e_speed, lane, speed);
            setd(e_dist, lane, distance);
            setd(e_press, lane, pressure);
            setd(e_pulse, lane, pulse);
            e_pacnt[lane] = pacnt;
            e_tic1[lane] = tic1;
            e_tcnt[lane] = tcnt;

            o_pacnt[lane] = util::mask_width(pacnt, w_pacnt);
            o_tic1[lane] = util::mask_width(tic1, w_tic1);
            o_tcnt[lane] = util::mask_width(tcnt, w_tcnt);
            // Value-identical to the scalar's lround: the argument is
            // non-negative and far below 2^51 (pressure tracks a command
            // clamped to [0,1]), so adding an exactly-representable 0.5
            // and truncating rounds half-up == half-away-from-zero,
            // without the libm call.
            o_adc[lane] = util::mask_width(
                std::min<std::uint32_t>(
                    255, static_cast<std::uint32_t>(
                             std::max(0.0, pressure) * 255.0 + 0.5)),
                w_adc);
        }
    }

    // ------------------------------------------- signal-point launch flips
    const bool launching_any = st.launch_count() != 0;
    if (launching_any) {
        for (std::size_t lane = 0; lane < n; ++lane) {
            if (!st.launching(lane)) continue;
            const runtime::BatchFlip& f = st.flip(lane);
            if (f.point != runtime::BatchFlip::Point::kSignal) continue;
            std::uint32_t* row = sg(f.signal.index());
            row[lane] = util::flip_bit(row[lane], f.bit, sig_width_[f.signal.index()]);
        }
    }

    // ------------------------------------------------------- frame loads
    for (std::size_t m = 0; m < frame_word_.size(); ++m) {
        for (std::size_t p = 0; p < frame_word_[m].size(); ++p) {
            std::uint32_t* const dst = mw(frame_word_[m][p]);
            const std::uint32_t* const src = sg(frame_src_[m][p]);
            for (std::size_t lane = 0; lane < n; ++lane) dst[lane] = src[lane];
        }
    }

    // ----------------------------------- frame/memory-point launch flips
    if (launching_any) {
        for (std::size_t lane = 0; lane < n; ++lane) {
            if (!st.launching(lane)) continue;
            const runtime::BatchFlip& f = st.flip(lane);
            if (f.point == runtime::BatchFlip::Point::kFrame) {
                const std::size_t m = f.module.index();
                if (m < frame_word_.size() && f.port < frame_word_[m].size()) {
                    std::uint32_t* row = mw(frame_word_[m][f.port]);
                    row[lane] = util::flip_bit(row[lane], f.bit, frame_width_[m][f.port]);
                }
            } else if (f.point == runtime::BatchFlip::Point::kMemory) {
                std::uint32_t* row = mw(f.word_index);
                row[lane] = util::flip_bit(row[lane], f.bit, mem_width_[f.word_index]);
            }
        }
    }

    // ------------------------------------------------------------- CLOCK
    {
        std::uint32_t* const mscnt = mw(m_clock_mscnt_);
        const std::uint32_t* const arg_i = mw(f_clock_i_);
        std::uint32_t* const o_slot = sg(s_slot_);
        std::uint32_t* const o_mscnt = sg(s_mscnt_);
        const unsigned w_slot = sig_width_[s_slot_];
        const unsigned w_mscnt = sig_width_[s_mscnt_];
        for (std::size_t lane = 0; lane < n; ++lane) {
            const std::uint32_t m = (mscnt[lane] + 1) & 0xffffU;
            mscnt[lane] = m;
            const std::uint32_t slot =
                mw(m_clock_slot0_ + arg_i[lane] % ClockModule::kSlots)[lane];
            o_slot[lane] = util::mask_width(slot & 0xffU, w_slot);
            o_mscnt[lane] = util::mask_width(m, w_mscnt);
        }
    }

    // ------------------------------------------------------------ DIST_S
    {
        const std::uint32_t* const a_cnt = mw(f_dist_pacnt_);
        const std::uint32_t* const a_tic1 = mw(f_dist_tic1_);
        const std::uint32_t* const a_tcnt = mw(f_dist_tcnt_);
        std::uint32_t* const prev = mw(m_d_prev_);
        std::uint32_t* const pulscnt = mw(m_d_puls_);
        std::uint32_t* const acc = mw(m_d_acc_);
        std::uint32_t* const phase = mw(m_d_phase_);
        std::uint32_t* const bin_idx = mw(m_d_binidx_);
        std::uint32_t* const rate = mw(m_d_rate_);
        std::uint32_t* const slow_deb = mw(m_d_slowdeb_);
        std::uint32_t* const stop_deb = mw(m_d_stopdeb_);
        std::uint32_t* const stop_latch = mw(m_d_latch_);
        std::uint32_t* const delta_s = mw(m_d_delta_);
        std::uint64_t* const first = st.behaviours_row(0);
        std::uint32_t* const o_puls = sg(s_puls_);
        std::uint32_t* const o_slow = sg(s_slow_);
        std::uint32_t* const o_stop = sg(s_stop_);
        const unsigned w_puls = sig_width_[s_puls_];
        const std::uint32_t stop_age = cfg_.stop_age_counts;
        for (std::size_t lane = 0; lane < n; ++lane) {
            const std::uint32_t cnt = a_cnt[lane];
            std::uint32_t delta = (cnt - prev[lane]) & 0xffU;
            if (first[lane] != 0) {
                delta = 0;
                first[lane] = 0;
            }
            prev[lane] = cnt & 0xffU;
            if (delta > DistSModule::kMaxPlausibleDelta) {
                delta = DistSModule::kMaxPlausibleDelta;
            }
            delta_s[lane] = delta;

            pulscnt[lane] = (pulscnt[lane] + delta_s[lane]) & 0xffffU;

            acc[lane] = (acc[lane] + delta_s[lane]) & 0xffU;
            phase[lane] = (phase[lane] + 1) & 0xffU;
            if (phase[lane] >= DistSModule::kBinMs) {
                phase[lane] = 0;
                const std::uint32_t bi = bin_idx[lane] % DistSModule::kBins;
                std::uint32_t* const bin = mw(m_d_bin0_ + bi);
                rate[lane] = (rate[lane] + acc[lane] - bin[lane]) & 0xffffU;
                bin[lane] = acc[lane];
                acc[lane] = 0;
                bin_idx[lane] = (bi + 1) % DistSModule::kBins;
            }
            slow_deb[lane] = rate[lane] < DistSModule::kSlowRateThreshold
                                 ? std::min<std::uint32_t>(slow_deb[lane] + 1, 255)
                                 : 0;

            const std::uint32_t age = (a_tcnt[lane] - a_tic1[lane]) & 0xffffU;
            stop_deb[lane] = age > stop_age
                                 ? std::min<std::uint32_t>(stop_deb[lane] + 1, 255)
                                 : 0;
            if (stop_deb[lane] >= DistSModule::kStopDebounce) stop_latch[lane] = 1;

            o_puls[lane] = util::mask_width(pulscnt[lane], w_puls);
            o_slow[lane] = slow_deb[lane] >= DistSModule::kSlowDebounce ? 1U : 0U;
            o_stop[lane] = stop_latch[lane] != 0 ? 1U : 0U;
        }
    }

    // -------------------------------------------------------------- CALC
    {
        const std::uint32_t* const a_i = mw(f_calc_i_);
        const std::uint32_t* const a_mscnt = mw(f_calc_mscnt_);
        const std::uint32_t* const a_puls = mw(f_calc_puls_);
        const std::uint32_t* const a_slow = mw(f_calc_slow_);
        const std::uint32_t* const a_stop = mw(f_calc_stop_);
        std::uint32_t* const base_s = mw(m_c_base_);
        std::uint32_t* const cap_s = mw(m_c_cap_);
        std::uint32_t* const o_i = sg(s_i_);
        std::uint32_t* const o_set = sg(s_set_);
        const unsigned w_i = sig_width_[s_i_];
        const unsigned w_set = sig_width_[s_set_];
        const std::uint32_t taper_end = cfg_.taper_end_ms;
        const std::uint32_t slow_pressure = cfg_.slow_pressure;
        const std::uint32_t plateau = cfg_.plateau_pressure;
        const std::uint32_t emergency = cfg_.emergency_ms;
        for (std::size_t lane = 0; lane < n; ++lane) {
            const std::uint32_t i_in = a_i[lane] & 0xffffU;
            const std::uint32_t mscnt = a_mscnt[lane] & 0xffffU;
            const std::uint32_t pulscnt = a_puls[lane] & 0xffffU;
            const bool slow = a_slow[lane] != 0;
            const bool stopped = a_stop[lane] != 0;

            const std::uint32_t dist_target = pulscnt >> 5;
            std::uint32_t i_next = i_in;
            if (!stopped && dist_target > i_in) i_next = (i_in + 1) & 0xffffU;
            o_i[lane] = util::mask_width(i_next, w_i);

            const std::uint32_t prog_idx =
                std::min<std::uint32_t>(mscnt >> 9, CalcModule::kProgSteps - 1) %
                CalcModule::kProgSteps;
            std::uint32_t base = mw(m_c_prog0_ + prog_idx)[lane];
            if (mscnt >= taper_end) {
                const std::uint32_t rem = mscnt - taper_end;
                const std::uint32_t floor_p =
                    slow_pressure + CalcModule::kTaperFloorMargin;
                if (base > floor_p) {
                    base = rem >= CalcModule::kTaperMs
                               ? floor_p
                               : floor_p + (base - floor_p) *
                                               (CalcModule::kTaperMs - rem) /
                                               CalcModule::kTaperMs;
                }
            }
            base_s[lane] = base;

            cap_s[lane] = plateau * (16 + std::min<std::uint32_t>(i_in, 32)) / 32;

            std::uint32_t set = std::min(base_s[lane], cap_s[lane]);
            if (slow) set = slow_pressure;
            if (mscnt >= emergency) set = 0;
            o_set[lane] = util::mask_width(set & 0xffffU, w_set);
        }
    }

    // ------------------------------------------------------------ PRES_S
    {
        static_assert(PresSModule::kTaps == 5,
                      "median network below is specific to 5 taps");
        const std::uint32_t* const a_adc = mw(f_press_adc_);
        std::uint32_t* const idx = mw(m_p_idx_);
        std::uint32_t* const filt = mw(m_p_filt_);
        std::uint32_t* const med = mw(m_p_med_);
        std::uint32_t* const o_is = sg(s_is_);
        std::uint32_t* const b0 = mw(m_p_buf0_);
        std::uint32_t* const b1 = mw(m_p_buf0_ + 1);
        std::uint32_t* const b2 = mw(m_p_buf0_ + 2);
        std::uint32_t* const b3 = mw(m_p_buf0_ + 3);
        std::uint32_t* const b4 = mw(m_p_buf0_ + 4);
        const unsigned w_is = sig_width_[s_is_];
        const auto cswap = [](std::uint32_t& a, std::uint32_t& b) noexcept {
            const std::uint32_t lo = std::min(a, b);
            b = std::max(a, b);
            a = lo;
        };
        for (std::size_t lane = 0; lane < n; ++lane) {
            mw(m_p_buf0_ + idx[lane] % PresSModule::kTaps)[lane] = a_adc[lane] & 0xffU;
            idx[lane] = (idx[lane] + 1) % PresSModule::kTaps;
            // Median of the 5 taps via a branchless sorting network —
            // the same value std::sort's middle element yields.
            std::uint32_t s0 = b0[lane], s1 = b1[lane], s2 = b2[lane],
                          s3 = b3[lane], s4 = b4[lane];
            cswap(s0, s1);
            cswap(s3, s4);
            cswap(s2, s4);
            cswap(s2, s3);
            cswap(s0, s3);
            cswap(s0, s2);
            cswap(s1, s4);
            cswap(s1, s3);
            cswap(s1, s2);
            med[lane] = s2;

            const auto target = static_cast<std::int32_t>(s2 * 4);
            const auto prev = static_cast<std::int32_t>(filt[lane]);
            const std::int32_t delta =
                clampi(target - prev, -PresSModule::kMaxSlewPerMs,
                       PresSModule::kMaxSlewPerMs);
            filt[lane] = static_cast<std::uint32_t>(prev + delta) & 0xffffU;
            o_is[lane] = util::mask_width(filt[lane], w_is);
        }
    }

    // ------------------------------------------------------------- V_REG
    {
        const std::uint32_t* const a_set = mw(f_vreg_set_);
        const std::uint32_t* const a_is = mw(f_vreg_is_);
        std::uint32_t* const integ = mw(m_v_integ_);
        std::uint32_t* const prev_out = mw(m_v_prev_);
        std::uint32_t* const err_s = mw(m_v_err_);
        std::uint32_t* const o_out = sg(s_out_);
        const unsigned w_out = sig_width_[s_out_];
        for (std::size_t lane = 0; lane < n; ++lane) {
            const auto set = static_cast<std::int32_t>(a_set[lane] & 0xffffU);
            const auto is = static_cast<std::int32_t>(a_is[lane] & 0xffffU);

            std::int32_t err = set - is;
            if (err >= -VRegModule::kDeadband && err <= VRegModule::kDeadband) err = 0;
            err_s[lane] = static_cast<std::uint32_t>(err) & 0xffffU;
            const std::int32_t err_db = util::sign_extend(err_s[lane], 16);

            const bool saturated_low = prev_out[lane] == 0 && err_db < 0;
            const bool saturated_high = prev_out[lane] == 0xffffU && err_db > 0;
            std::int32_t ig = util::sign_extend(integ[lane], 16);
            if (!saturated_low && !saturated_high) {
                ig = clampi(ig + err_db / 4, -VRegModule::kIntegLimit,
                            VRegModule::kIntegLimit);
            }
            integ[lane] = static_cast<std::uint32_t>(ig) & 0xffffU;

            const std::int32_t ff = (set >> 2) * 256;
            const std::int32_t u = ff + err_db * 16 + ig * 4;
            prev_out[lane] = static_cast<std::uint32_t>(clampi(u, 0, 65535));
            o_out[lane] = util::mask_width(prev_out[lane], w_out);
        }
    }

    // ------------------------------------------------------------ PRES_A
    {
        const std::uint32_t* const a_out = mw(f_presa_out_);
        std::uint32_t* const cmd = mw(m_a_cmd_);
        std::uint32_t* const tgt = mw(m_a_tgt_);
        std::uint32_t* const o_toc2 = sg(s_toc2_);
        const unsigned w_toc2 = sig_width_[s_toc2_];
        for (std::size_t lane = 0; lane < n; ++lane) {
            tgt[lane] = a_out[lane] & 0xffffU;
            const std::int32_t diff = static_cast<std::int32_t>(tgt[lane]) -
                                      static_cast<std::int32_t>(cmd[lane]);
            cmd[lane] = static_cast<std::uint32_t>(
                            static_cast<std::int32_t>(cmd[lane]) +
                            clampi(diff, -PresAModule::kMaxSlewPerMs,
                                   PresAModule::kMaxSlewPerMs)) &
                        0xffffU;
            o_toc2[lane] = util::mask_width(cmd[lane] & PresAModule::kPwmMask, w_toc2);
        }
    }

    // ------------------------------------------------------ EAs (observe)
    // The rule is chosen once per EA and tick; the lane loop runs it inlined.
    for (std::size_t e = 0; e < eas_.size(); ++e) {
        const EaRef& ea = eas_[e];
        const std::uint32_t* const watched = sg(ea.signal);
        std::uint64_t* const last = st.monitors_row(4 * e);
        std::uint64_t* const have = st.monitors_row(4 * e + 1);
        std::uint64_t* const firstdet = st.monitors_row(4 * e + 2);
        std::uint64_t* const viol = st.monitors_row(4 * e + 3);
        const auto observe = [&]<ea::EaType T>() {
            for (std::size_t lane = 0; lane < n; ++lane) {
                const auto value = static_cast<std::int64_t>(watched[lane]);
                if (ea::violates_as<T>(ea.params, static_cast<std::int64_t>(last[lane]),
                                       value, have[lane] != 0, now)) {
                    viol[lane] += 1;
                    if (firstdet[lane] == runtime::kInvalidTick) firstdet[lane] = now;
                }
                last[lane] = static_cast<std::uint64_t>(value);
                have[lane] = 1;
            }
        };
        using enum ea::EaType;
        switch (ea.params.type) {
            case kContinuous: observe.template operator()<kContinuous>(); break;
            case kMonotonic: observe.template operator()<kMonotonic>(); break;
            case kDiscrete: observe.template operator()<kDiscrete>(); break;
        }
    }

    // ---------------------------------------------------- plant actuate
    {
        std::uint64_t* const e_cmd = st.environment_row(kEnvCmd);
        std::uint64_t* const e_settle = st.environment_row(kEnvSettle);
        const std::uint64_t* const e_stopped = st.environment_row(kEnvStopped);
        const std::uint64_t* const e_over = st.environment_row(kEnvOverranRunway);
        const std::uint32_t* const toc2 = sg(s_toc2_);
        const std::uint64_t settle_ticks = pc_.settle_ticks;
        for (std::size_t lane = 0; lane < n; ++lane) {
            setd(e_cmd, lane,
                 std::clamp(static_cast<double>(toc2[lane]) / 65535.0, 0.0, 1.0));
            st.set_finished(lane, e_over[lane] != 0 ||
                                      (e_stopped[lane] != 0 &&
                                       e_settle[lane] >= settle_ticks));
        }
    }
}

}  // namespace epea::target
