#include "ea/assertion.hpp"

namespace epea::ea {

void ExecutableAssertion::reset() {
    last_value_ = 0;
    have_last_ = false;
    first_detection_ = runtime::kInvalidTick;
    violations_ = 0;
}

void ExecutableAssertion::observe(const runtime::SignalStore& store, runtime::Tick now) {
    const auto value = static_cast<std::int64_t>(store.get(signal_));
    if (violates(params_, last_value_, value, have_last_, now)) {
        ++violations_;
        if (first_detection_ == runtime::kInvalidTick) first_detection_ = now;
    }
    last_value_ = value;
    have_last_ = true;
}

}  // namespace epea::ea
