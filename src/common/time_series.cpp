#include "common/time_series.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>

#include "common/ckpt/serialize.hpp"
#include "common/error.hpp"

namespace dh {

void TimeSeries::append(Seconds t, double value) {
  DH_REQUIRE(times_.empty() || t.value() >= times_.back(),
             "time series samples must be appended in time order");
  times_.push_back(t.value());
  values_.push_back(value);
}

Seconds TimeSeries::time_at(std::size_t i) const {
  DH_REQUIRE(i < times_.size(), "time series index out of range");
  return Seconds{times_[i]};
}

double TimeSeries::value_at(std::size_t i) const {
  DH_REQUIRE(i < values_.size(), "time series index out of range");
  return values_[i];
}

Seconds TimeSeries::front_time() const {
  DH_REQUIRE(!times_.empty(), "time series is empty");
  return Seconds{times_.front()};
}

Seconds TimeSeries::back_time() const {
  DH_REQUIRE(!times_.empty(), "time series is empty");
  return Seconds{times_.back()};
}

double TimeSeries::front_value() const {
  DH_REQUIRE(!values_.empty(), "time series is empty");
  return values_.front();
}

double TimeSeries::back_value() const {
  DH_REQUIRE(!values_.empty(), "time series is empty");
  return values_.back();
}

double TimeSeries::sample(Seconds t) const {
  DH_REQUIRE(!times_.empty(), "cannot sample an empty time series");
  const double x = t.value();
  if (x <= times_.front()) return values_.front();
  if (x >= times_.back()) return values_.back();
  const auto it = std::upper_bound(times_.begin(), times_.end(), x);
  const std::size_t hi = static_cast<std::size_t>(it - times_.begin());
  const std::size_t lo = hi - 1;
  const double t0 = times_[lo];
  const double t1 = times_[hi];
  if (t1 == t0) return values_[hi];
  const double w = (x - t0) / (t1 - t0);
  return values_[lo] * (1.0 - w) + values_[hi] * w;
}

double TimeSeries::min_value() const {
  DH_REQUIRE(!values_.empty(), "time series is empty");
  return *std::min_element(values_.begin(), values_.end());
}

double TimeSeries::max_value() const {
  DH_REQUIRE(!values_.empty(), "time series is empty");
  return *std::max_element(values_.begin(), values_.end());
}

TimeSeries TimeSeries::resampled(std::size_t n) const {
  DH_REQUIRE(n >= 2, "resampling needs at least two points");
  DH_REQUIRE(!times_.empty(), "cannot resample an empty series");
  TimeSeries out{name_, unit_};
  const double t0 = times_.front();
  const double t1 = times_.back();
  for (std::size_t i = 0; i < n; ++i) {
    const double t = t0 + (t1 - t0) * static_cast<double>(i) /
                              static_cast<double>(n - 1);
    out.append(Seconds{t}, sample(Seconds{t}));
  }
  return out;
}

TimeSeries TimeSeries::scaled(double factor) const {
  TimeSeries out{name_, unit_};
  for (std::size_t i = 0; i < times_.size(); ++i) {
    out.append(Seconds{times_[i]}, values_[i] * factor);
  }
  return out;
}

void write_csv(std::ostream& os, const std::vector<TimeSeries>& series) {
  std::size_t max_rows = 0;
  for (const auto& s : series) max_rows = std::max(max_rows, s.size());
  bool first = true;
  for (const auto& s : series) {
    if (!first) os << ',';
    os << "t_" << s.name() << "(s)," << s.name();
    if (!s.unit().empty()) os << '(' << s.unit() << ')';
    first = false;
  }
  os << '\n';
  for (std::size_t r = 0; r < max_rows; ++r) {
    first = true;
    for (const auto& s : series) {
      if (!first) os << ',';
      if (r < s.size()) {
        os << s.time_at(r).value() << ',' << s.value_at(r);
      } else {
        os << ',';
      }
      first = false;
    }
    os << '\n';
  }
}

void print_series_table(std::ostream& os,
                        const std::vector<TimeSeries>& series,
                        std::size_t rows) {
  if (series.empty() || rows < 2) return;
  double t0 = series.front().front_time().value();
  double t1 = series.front().back_time().value();
  for (const auto& s : series) {
    t0 = std::min(t0, s.front_time().value());
    t1 = std::max(t1, s.back_time().value());
  }
  os << std::setw(12) << "t (min)";
  for (const auto& s : series) {
    os << std::setw(22) << s.name();
  }
  os << '\n';
  for (std::size_t r = 0; r < rows; ++r) {
    const double t =
        t0 + (t1 - t0) * static_cast<double>(r) / static_cast<double>(rows - 1);
    os << std::setw(12) << std::fixed << std::setprecision(1) << (t / 60.0);
    for (const auto& s : series) {
      if (t < s.front_time().value() || t > s.back_time().value()) {
        os << std::setw(22) << "-";
      } else {
        os << std::setw(22) << std::setprecision(4) << s.sample(Seconds{t});
      }
    }
    os << '\n';
  }
  os.unsetf(std::ios::fixed);
}

void TimeSeries::save_state(ckpt::Serializer& s) const {
  s.begin_section("TSER");
  s.write_string(name_);
  s.write_string(unit_);
  s.write_f64_vec(times_);
  s.write_f64_vec(values_);
}

void TimeSeries::load_state(ckpt::Deserializer& d) {
  d.expect_section("TSER");
  name_ = d.read_string();
  unit_ = d.read_string();
  times_ = d.read_f64_vec();
  values_ = d.read_f64_vec();
  DH_REQUIRE(times_.size() == values_.size(),
             "time series snapshot has mismatched time/value lengths");
}

}  // namespace dh
