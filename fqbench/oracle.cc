#include "oracle.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "client/client.h"
#include "crypto/key_manager.h"
#include "engine/cloud_node.h"
#include "engine/fresque_collector.h"
#include "record/dataset.h"

namespace fqbench {

namespace {

/// FNV-1a over the identity fields, typed so a string "12" and an integer
/// 12 never collide.
class Fingerprint {
 public:
  void Str(std::string_view s) {
    Byte('s');
    for (char c : s) Byte(static_cast<uint8_t>(c));
    Byte(0);
  }
  void Int(int64_t v) {
    Byte('i');
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(uint64_t(v) >> (8 * i)));
  }
  uint64_t value() const { return h_; }

 private:
  void Byte(uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

bool Digits(std::string_view s, int64_t* out) {
  if (s.empty() || s.size() > 18) return false;
  int64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + (c - '0');
  }
  *out = v;
  return true;
}

bool SplitNasa(std::string_view line, LineFacts* out) {
  const size_t sp = line.find(' ');
  const size_t lb = line.find('[');
  const size_t rb = line.find(']');
  if (sp == std::string_view::npos || lb == std::string_view::npos ||
      rb == std::string_view::npos || rb < lb) {
    return false;
  }
  // [dd/Mon/yyyy:HH:MM:SS tz]: the time of day follows the first ':'.
  const size_t colon = line.find(':', lb);
  if (colon == std::string_view::npos || colon + 9 > rb) return false;
  int64_t hh = 0, mm = 0, ss = 0;
  if (!Digits(line.substr(colon + 1, 2), &hh) ||
      !Digits(line.substr(colon + 4, 2), &mm) ||
      !Digits(line.substr(colon + 7, 2), &ss)) {
    return false;
  }
  const size_t q1 = line.find('"', rb);
  const size_t q2 = q1 == std::string_view::npos ? q1 : line.find('"', q1 + 1);
  if (q2 == std::string_view::npos) return false;
  std::string_view tail = line.substr(q2 + 1);
  while (!tail.empty() && tail.front() == ' ') tail.remove_prefix(1);
  const size_t sp2 = tail.find(' ');
  if (sp2 == std::string_view::npos) return false;
  int64_t status = 0, bytes = 0;
  if (!Digits(tail.substr(0, sp2), &status)) return false;
  std::string_view b = tail.substr(sp2 + 1);
  if (b != "-" && !Digits(b, &bytes)) return false;
  Fingerprint fp;
  fp.Str(line.substr(0, sp));
  fp.Int(hh * 3600 + mm * 60 + ss);
  fp.Str(line.substr(q1 + 1, q2 - q1 - 1));
  fp.Int(status);
  fp.Int(bytes);
  out->value = static_cast<double>(bytes);
  out->fingerprint = fp.value();
  return true;
}

bool SplitGowalla(std::string_view line, LineFacts* out) {
  int64_t cells[3];
  size_t start = 0;
  for (int i = 0; i < 3; ++i) {
    size_t comma = line.find(',', start);
    if ((i < 2) != (comma != std::string_view::npos)) return false;
    std::string_view cell = line.substr(
        start, comma == std::string_view::npos ? std::string_view::npos
                                               : comma - start);
    if (!Digits(cell, &cells[i])) return false;
    start = comma + 1;
  }
  Fingerprint fp;
  for (int64_t c : cells) fp.Int(c);
  out->value = static_cast<double>(cells[1]);
  out->fingerprint = fp.value();
  return true;
}

}  // namespace

bool SplitLine(Dataset ds, std::string_view line, LineFacts* out) {
  return ds == Dataset::kNasa ? SplitNasa(line, out) : SplitGowalla(line, out);
}

bool RecordFacts(Dataset ds, const fresque::record::Record& rec,
                 LineFacts* out) {
  const auto& v = rec.values();
  Fingerprint fp;
  if (ds == Dataset::kNasa) {
    if (v.size() != 5 || !v[0].is_string() || !v[1].is_int64() ||
        !v[2].is_string() || !v[3].is_int64() || !v[4].is_int64()) {
      return false;
    }
    const int64_t ts = v[1].AsInt64();
    fp.Str(v[0].AsString());
    fp.Int(((ts % 86400) + 86400) % 86400);
    fp.Str(v[2].AsString());
    fp.Int(v[3].AsInt64());
    fp.Int(v[4].AsInt64());
    out->value = static_cast<double>(v[4].AsInt64());
  } else {
    if (v.size() != 3) return false;
    for (const auto& c : v) {
      if (!c.is_int64()) return false;
      fp.Int(c.AsInt64());
    }
    out->value = static_cast<double>(v[1].AsInt64());
  }
  out->fingerprint = fp.value();
  return true;
}

GroundTruth::GroundTruth(Dataset ds, const std::vector<std::string>& lines)
    : ds_(ds) {
  values_.reserve(lines.size());
  multiplicity_.reserve(lines.size());
  for (const auto& line : lines) {
    LineFacts f;
    if (!SplitLine(ds, line, &f)) {
      ++unsplittable_;
      continue;
    }
    values_.push_back(f.value);
    ++multiplicity_[f.fingerprint];
  }
  sorted_.reserve(values_.size());
  for (size_t i = 0; i < values_.size(); ++i) {
    sorted_.emplace_back(values_[i], static_cast<uint32_t>(i));
  }
  std::sort(sorted_.begin(), sorted_.end());
}

size_t GroundTruth::CountReachable(double lo, double hi,
                                   const Reachability& r) const {
  auto a = std::lower_bound(sorted_.begin(), sorted_.end(),
                            std::make_pair(lo, uint32_t{0}));
  auto b = std::upper_bound(sorted_.begin(), sorted_.end(),
                            std::make_pair(hi, UINT32_MAX));
  size_t n = 0;
  for (auto it = a; it < b; ++it) n += r.Reachable(it->second, it->first);
  return n;
}

Reachability::Reachability(
    const std::vector<const fresque::cloud::CloudServer*>& stores,
    size_t lines_per_publication)
    : per_pub_(lines_per_publication) {
  for (const auto* server : stores) {
    Store s;
    const auto& b = server->binning();
    s.min = b.domain_min();
    s.max = b.domain_max();
    s.width = b.bin_width();
    s.leaves = b.num_bins();
    for (const auto& pub : server->CurrentView()->publications()) {
      const auto& idx = pub->index;
      const size_t levels = idx.layout().num_levels();
      const size_t fanout = idx.layout().fanout();
      std::vector<bool> ok(s.leaves, false);
      for (size_t leaf = 0; leaf < s.leaves && leaf < idx.layout().num_leaves();
           ++leaf) {
        bool reach = true;
        size_t node = leaf;
        for (size_t level = 0; level < levels && reach; ++level) {
          reach = idx.count(level, node) >= 0;
          node /= fanout;
        }
        ok[leaf] = reach;
      }
      s.pubs.emplace(pub->pn, std::move(ok));
    }
    stores_.push_back(std::move(s));
  }
}

bool Reachability::Reachable(size_t line_index, double value) const {
  for (size_t i = 0; i < stores_.size(); ++i) {
    const Store& s = stores_[i];
    const bool last = i + 1 == stores_.size();
    if (value < s.min || (value >= s.max && !last)) continue;
    size_t leaf = static_cast<size_t>((value - s.min) / s.width);
    if (leaf >= s.leaves) leaf = s.leaves - 1;
    auto it = s.pubs.find(line_index / per_pub_);
    // A publication not installed yet is scanned whole (unindexed).
    return it == s.pubs.end() || it->second[leaf];
  }
  return false;
}

uint32_t GroundTruth::Multiplicity(uint64_t fingerprint) const {
  auto it = multiplicity_.find(fingerprint);
  return it == multiplicity_.end() ? 0 : it->second;
}

QueryVerdict CheckQuery(const GroundTruth& truth,
                        const fresque::cloud::QueryResult& raw,
                        const std::vector<fresque::record::Record>& decrypted,
                        const fresque::index::RangeQuery& q,
                        const Reachability* reach, uint64_t overflow_drops) {
  QueryVerdict v;
  v.returned = decrypted.size();
  {
    // Every e-record starts with its random CBC IV, so sorting on the
    // first IV bytes brings equal ciphertexts next to each other.
    std::vector<std::pair<uint64_t, const fresque::Bytes*>> cts;
    cts.reserve(raw.TotalRecords());
    for (const auto* part :
         {&raw.indexed_records, &raw.overflow_records, &raw.unindexed_records}) {
      for (const auto& r : *part) {
        uint64_t key = 0;
        std::memcpy(&key, r.e_record.data(), std::min<size_t>(8, r.e_record.size()));
        cts.emplace_back(key, &r.e_record);
      }
    }
    std::sort(cts.begin(), cts.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    for (size_t i = 1; i < cts.size(); ++i) {
      for (size_t j = i; j-- > 0 && cts[j].first == cts[i].first;) {
        if (*cts[j].second == *cts[i].second) {
          v.why = "a ciphertext is returned twice";
          return v;
        }
      }
    }
  }
  std::unordered_map<uint64_t, uint32_t> returned;
  returned.reserve(decrypted.size());
  for (const auto& rec : decrypted) {
    LineFacts f;
    if (!RecordFacts(truth.dataset(), rec, &f)) {
      v.why = "a returned record has the wrong shape";
      return v;
    }
    if (f.value < q.lo || f.value > q.hi) {
      v.why = "a returned record lies outside the query range";
      return v;
    }
    const uint32_t n = ++returned[f.fingerprint];
    const uint32_t limit = truth.Multiplicity(f.fingerprint);
    if (limit == 0) {
      v.why = "a returned record was never ingested";
      return v;
    }
    if (n > limit) {
      v.why = "a record is returned more often than it was ingested";
      return v;
    }
  }
  if (reach != nullptr) {
    v.expected = truth.CountReachable(q.lo, q.hi, *reach);
    if (v.returned > v.expected || v.returned + overflow_drops < v.expected) {
      v.why = "query [" + std::to_string(q.lo) + ", " + std::to_string(q.hi) +
              "] returned " + std::to_string(v.returned) +
              " real records; the oracle expects " +
              std::to_string(v.expected) + " minus at most " +
              std::to_string(overflow_drops) + " overflow drops";
    }
  }
  return v;
}

bool SameCiphertexts(const fresque::cloud::QueryResult& a,
                     const fresque::cloud::QueryResult& b) {
  using Item = const fresque::cloud::ResultRecord*;
  auto sorted = [](const fresque::cloud::QueryResult& r) {
    std::vector<Item> v;
    v.reserve(r.TotalRecords());
    for (const auto* part :
         {&r.indexed_records, &r.overflow_records, &r.unindexed_records}) {
      for (const auto& rec : *part) v.push_back(&rec);
    }
    std::sort(v.begin(), v.end(), [](Item x, Item y) {
      return x->pn != y->pn ? x->pn < y->pn : x->e_record < y->e_record;
    });
    return v;
  };
  const auto x = sorted(a);
  const auto y = sorted(b);
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i]->pn != y[i]->pn || x[i]->e_record != y[i]->e_record) return false;
  }
  return true;
}

int SelfTest() {
  using namespace fresque;
  int failures = 0;
  auto expect = [&failures](bool cond, const char* what) {
    std::printf("self-test: %-58s %s\n", what, cond ? "ok" : "FAILED");
    if (!cond) ++failures;
  };

  // Identity: the oracle's split and the decrypted record agree.
  for (Dataset ds : {Dataset::kNasa, Dataset::kGowalla}) {
    auto spec = ds == Dataset::kNasa ? record::NasaDataset()
                                     : record::GowallaDataset();
    auto gen = record::MakeGenerator(*spec, 7);
    bool agree = true;
    for (int i = 0; i < 2000 && agree; ++i) {
      std::string line = (*gen)->NextLine();
      LineFacts a, b;
      auto rec = spec->parser->Parse(line);
      agree = rec.ok() && SplitLine(ds, line, &a) &&
              RecordFacts(ds, *rec, &b) && a.value == b.value &&
              a.fingerprint == b.fingerprint;
    }
    expect(agree, ds == Dataset::kNasa ? "nasa: oracle split == decrypted record"
                                       : "gowalla: oracle split == decrypted record");
  }

  // A small real ingest: 1 computing node, two publications.
  auto spec = record::GowallaDataset();
  auto binning = index::DomainBinning::Create(spec->domain_min,
                                              spec->domain_max,
                                              spec->bin_width);
  cloud::CloudServer server(*binning);
  engine::CloudNode node(&server);
  node.Start();
  engine::CollectorConfig cfg;
  cfg.dataset = *spec;
  cfg.num_computing_nodes = 1;
  crypto::KeyManager keys(Bytes(32, 0x17));
  engine::FresqueCollector collector(cfg, keys, node.inbox());
  node.RouteAcksTo(collector.publication_acks());
  expect(collector.Start().ok(), "collector starts");
  auto gen = record::MakeGenerator(*spec, 11);
  std::vector<std::string> lines;
  for (int i = 0; i < 4000; ++i) {
    lines.push_back((*gen)->NextLine());
    (void)collector.Ingest(lines.back());
    if (i % 2000 == 1999) (void)collector.Publish();
  }
  expect(collector.WaitForPublication(1).ok(), "both publications acked");
  const uint64_t drops = collector.overflow_drops();
  (void)collector.Shutdown();
  node.Shutdown();

  GroundTruth truth(Dataset::kGowalla, lines);
  const Reachability reach({&server}, 2000);
  client::Client client(keys, &spec->parser->schema());
  index::RangeQuery all{spec->domain_min, spec->domain_max};
  auto raw = server.ExecuteQuery(all);
  auto recs = client.Decrypt(*raw, all);
  if (!raw.ok() || !recs.ok()) {
    expect(false, "full-domain query runs");
    return failures;
  }
  auto base = CheckQuery(truth, *raw, *recs, all, &reach, drops);
  if (!base.ok()) std::printf("self-test: %s\n", base.why.c_str());
  expect(base.ok(), "untampered full-domain result passes");

  // Tamper 1: drop one real record.
  auto dropped = *recs;
  dropped.resize(dropped.size() - std::min<size_t>(dropped.size(), drops + 1));
  expect(!CheckQuery(truth, *raw, dropped, all, &reach, drops).ok(),
         "a dropped record fails the oracle");

  // Tamper 2: a record outside a narrow range.
  const double mid = truth.values_in_order()[0];
  index::RangeQuery narrow{mid - 1800, mid + 1800};
  auto nraw = server.ExecuteQuery(narrow);
  auto nrecs = client.Decrypt(*nraw, narrow);
  if (!nraw.ok() || !nrecs.ok() || nrecs->empty()) {
    expect(false, "narrow query runs and returns records");
    return failures;
  }
  auto nbase = CheckQuery(truth, *nraw, *nrecs, narrow, &reach, drops);
  if (!nbase.ok()) std::printf("self-test: %s\n", nbase.why.c_str());
  expect(nbase.ok(), "untampered narrow result passes");
  auto outside = *nrecs;
  for (const auto& r : *recs) {
    LineFacts f;
    if (RecordFacts(Dataset::kGowalla, r, &f) &&
        (f.value < narrow.lo || f.value > narrow.hi)) {
      outside.push_back(r);
      break;
    }
  }
  expect(!CheckQuery(truth, *nraw, outside, narrow, &reach, drops).ok(),
         "an out-of-range record fails the oracle");

  // Tamper 3: a duplicate, once as a decrypted record and once as a
  // repeated ciphertext in the cloud's raw result.
  auto dup = *nrecs;
  dup.push_back(dup.front());
  expect(!CheckQuery(truth, *nraw, dup, narrow, &reach, drops).ok(),
         "a duplicated record fails the oracle");
  auto dup_raw = *nraw;
  auto& part = dup_raw.indexed_records.empty() ? dup_raw.unindexed_records
                                               : dup_raw.indexed_records;
  part.push_back(part.front());
  expect(!CheckQuery(truth, dup_raw, *nrecs, narrow, &reach, drops).ok(),
         "a duplicated ciphertext fails the oracle");

  // Tamper 4: a record that was never ingested.
  auto alien = *nrecs;
  alien.push_back(alien.front());
  alien.back().values()[0] = record::Value(int64_t{-5});
  alien.erase(alien.begin());
  expect(!CheckQuery(truth, *nraw, alien, narrow, &reach, drops).ok(),
         "a never-ingested record fails the oracle");
  return failures;
}

}  // namespace fqbench
