#include "src/obs/metrics.h"

#include <sstream>

namespace mtdb::obs {

#if !defined(MTDB_NO_METRICS)
std::atomic<bool> MetricsRegistry::enabled_{true};
#endif

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: instrumented code may record during static
  // destruction, and series pointers must outlive every caller.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

std::string MetricsRegistry::LabelKey(const MetricLabels& labels) {
  std::string key;
  key.reserve(labels.machine.size() + labels.database.size() +
              labels.operation.size() + 2);
  key.append(labels.database);
  key.push_back('\x1f');
  key.append(labels.machine);
  key.push_back('\x1f');
  key.append(labels.operation);
  return key;
}

namespace {

// Shared lookup-or-insert over the three family map shapes. Returns a
// stable pointer: the live series, else the retired one for the same tuple
// (revived), else a new one. Falls back to the family rollup series once
// the cardinality bound is hit (eviction of idle databases' series frees
// slots again, so a family saturating the cap is a transient, not a
// terminal, state).
template <typename FamilyMap, typename Series>
Series* GetSeries(platform::SharedMutex& mu, FamilyMap& families,
                  const std::string& name, const MetricLabels& labels,
                  const std::string& key) {
  {
    platform::ReaderGuard read(mu);
    auto family_it = families.find(name);
    if (family_it != families.end()) {
      auto series_it = family_it->second.series.find(key);
      if (series_it != family_it->second.series.end()) {
        return series_it->second.get();
      }
      if (family_it->second.series.size() >=
          MetricsRegistry::kMaxSeriesPerFamily) {
        return &family_it->second.rollup;
      }
    }
  }
  platform::WriterGuard write(mu);
  auto& family = families[name];
  auto series_it = family.series.find(key);
  if (series_it != family.series.end()) return series_it->second.get();
  if (family.series.size() >= MetricsRegistry::kMaxSeriesPerFamily) {
    return &family.rollup;
  }
  auto retired = family.graveyard.extract(key);
  if (retired.empty()) {
    series_it = family.series.emplace(key, std::make_unique<Series>()).first;
  } else {
    series_it = family.series.insert(std::move(retired)).position;
  }
  family.labels.emplace(key, labels);
  return series_it->second.get();
}

void AppendLabels(std::ostringstream& out, const MetricLabels& labels) {
  bool any = false;
  auto emit = [&](const char* label_name, const std::string& value) {
    if (value.empty()) return;
    out << (any ? "," : "{") << label_name << "=\"" << value << "\"";
    any = true;
  };
  emit("machine", labels.machine);
  emit("database", labels.database);
  emit("operation", labels.operation);
  if (any) out << "}";
}

}  // namespace

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const MetricLabels& labels) {
  return GetSeries<decltype(counters_), Counter>(mu_, counters_, name, labels,
                                                 LabelKey(labels));
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const MetricLabels& labels) {
  return GetSeries<decltype(gauges_), Gauge>(mu_, gauges_, name, labels,
                                             LabelKey(labels));
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const MetricLabels& labels) {
  return GetSeries<decltype(histograms_), Histogram>(mu_, histograms_, name,
                                                     labels, LabelKey(labels));
}

int64_t MetricsRegistry::SumCounter(const std::string& name) const {
  platform::ReaderGuard read(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) return 0;
  int64_t total = it->second.rollup.Value();
  for (const auto& [key, counter] : it->second.series) {
    total += counter->Value();
  }
  // Graveyarded series were folded into the rollup and reset at eviction,
  // so adding their (post-eviction) residue never double-counts. A revived
  // series carries its residue back into `series`, where it counts once.
  for (const auto& [key, counter] : it->second.graveyard) {
    total += counter->Value();
  }
  return total;
}

int64_t MetricsRegistry::CounterValue(const std::string& name,
                                      const MetricLabels& labels) const {
  platform::ReaderGuard read(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) return 0;
  // The rollup series is addressable under the same pseudo-label the
  // Snapshot/TextDump expositions use for it.
  if (labels.machine.empty() && labels.operation.empty() &&
      labels.database == kRollupDatabase) {
    return it->second.rollup.Value();
  }
  auto series_it = it->second.series.find(LabelKey(labels));
  return series_it == it->second.series.end() ? 0
                                              : series_it->second->Value();
}

int64_t MetricsRegistry::GaugeValue(const std::string& name,
                                    const MetricLabels& labels) const {
  platform::ReaderGuard read(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) return 0;
  if (labels.machine.empty() && labels.operation.empty() &&
      labels.database == kRollupDatabase) {
    return it->second.rollup.Value();
  }
  auto series_it = it->second.series.find(LabelKey(labels));
  return series_it == it->second.series.end() ? 0
                                              : series_it->second->Value();
}

std::vector<SeriesSnapshot> MetricsRegistry::Snapshot() const {
  std::vector<SeriesSnapshot> out;
  platform::ReaderGuard read(mu_);
  for (const auto& [name, family] : counters_) {
    for (const auto& [key, counter] : family.series) {
      SeriesSnapshot snap;
      snap.name = name;
      snap.labels = family.labels.at(key);
      snap.kind = SeriesSnapshot::Kind::kCounter;
      snap.value = counter->Value();
      out.push_back(std::move(snap));
    }
    if (int64_t rolled = family.rollup.Value(); rolled != 0) {
      SeriesSnapshot snap;
      snap.name = name;
      snap.labels.database = kRollupDatabase;
      snap.kind = SeriesSnapshot::Kind::kCounter;
      snap.value = rolled;
      out.push_back(std::move(snap));
    }
  }
  for (const auto& [name, family] : gauges_) {
    for (const auto& [key, gauge] : family.series) {
      SeriesSnapshot snap;
      snap.name = name;
      snap.labels = family.labels.at(key);
      snap.kind = SeriesSnapshot::Kind::kGauge;
      snap.value = gauge->Value();
      out.push_back(std::move(snap));
    }
    if (int64_t rolled = family.rollup.Value(); rolled != 0) {
      SeriesSnapshot snap;
      snap.name = name;
      snap.labels.database = kRollupDatabase;
      snap.kind = SeriesSnapshot::Kind::kGauge;
      snap.value = rolled;
      out.push_back(std::move(snap));
    }
  }
  for (const auto& [name, family] : histograms_) {
    for (const auto& [key, histogram] : family.series) {
      SeriesSnapshot snap;
      snap.name = name;
      snap.labels = family.labels.at(key);
      snap.kind = SeriesSnapshot::Kind::kHistogram;
      snap.histogram = histogram->Snapshot();
      out.push_back(std::move(snap));
    }
    if (family.rollup.count() != 0) {
      SeriesSnapshot snap;
      snap.name = name;
      snap.labels.database = kRollupDatabase;
      snap.kind = SeriesSnapshot::Kind::kHistogram;
      snap.histogram = family.rollup.Snapshot();
      out.push_back(std::move(snap));
    }
  }
  return out;
}

void MetricsRegistry::EvictDatabaseSeries(const std::string& database) {
  if (database.empty()) return;
  // Every key of `database` starts with this prefix (LabelKey puts the
  // database first, and names never contain the separator), so its series
  // are the one key range starting at lower_bound(prefix).
  const std::string prefix = database + '\x1f';
  platform::WriterGuard write(mu_);
  auto evict = [&](auto& families, const auto& fold) {
    for (auto& [name, family] : families) {
      auto it = family.series.lower_bound(prefix);
      while (it != family.series.end() &&
             it->first.compare(0, prefix.size(), prefix) == 0) {
        fold(family, *it->second);
        family.labels.erase(it->first);
        auto retired = family.series.extract(it++);
        family.graveyard.insert(std::move(retired));
      }
    }
  };
  evict(counters_, [](CounterFamily& family, Counter& counter) {
    // Fold-then-reset keeps SumCounter lossless: the history moves to the
    // rollup, and only post-eviction increments remain on the graveyarded
    // object.
    family.rollup.Add(counter.Value());
    counter.Reset();
  });
  evict(gauges_, [](GaugeFamily&, Gauge& gauge) {
    // Instantaneous state of an idle tenant: dropping it is the truth.
    gauge.Reset();
  });
  evict(histograms_, [](HistogramFamily& family, Histogram& histogram) {
    family.rollup.Merge(histogram);
    histogram.Reset();
  });
}

std::string MetricsRegistry::TextDump() const {
  std::ostringstream out;
  for (const SeriesSnapshot& snap : Snapshot()) {
    out << snap.name;
    AppendLabels(out, snap.labels);
    if (snap.kind == SeriesSnapshot::Kind::kHistogram) {
      out << " count=" << snap.histogram.count << " mean=" << snap.histogram.mean
          << " p50=" << snap.histogram.p50 << " p99=" << snap.histogram.p99
          << " max=" << snap.histogram.max;
    } else {
      out << " " << snap.value;
    }
    out << "\n";
  }
  return out.str();
}

void MetricsRegistry::ResetForTest() {
  platform::WriterGuard write(mu_);
  for (auto& [name, family] : counters_) {
    family.rollup.Reset();
    for (auto& [key, counter] : family.series) counter->Reset();
    for (auto& [key, counter] : family.graveyard) counter->Reset();
  }
  for (auto& [name, family] : gauges_) {
    family.rollup.Reset();
    for (auto& [key, gauge] : family.series) gauge->Reset();
    for (auto& [key, gauge] : family.graveyard) gauge->Reset();
  }
  for (auto& [name, family] : histograms_) {
    family.rollup.Reset();
    for (auto& [key, histogram] : family.series) histogram->Reset();
    for (auto& [key, histogram] : family.graveyard) histogram->Reset();
  }
}

}  // namespace mtdb::obs
