// Micro-benchmarks of the index substrate (google-benchmark): leaf-offset
// arithmetic, template perturbation, traversal, serialization — the
// building blocks behind the publishing-time figures — and one
// publication at NASA geometry (3421 leaves x 16 overflow slots) through
// the merger's build, the cloud's decode and the snapshot encode.
//
// results/micro_index.json holds the medians of the publication rows:
//   bench_micro_index --benchmark_filter='Publication|Snapshot' \
//     --benchmark_repetitions=5 --benchmark_report_aggregates_only=true

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "cloud/server.h"
#include "crypto/chacha20.h"
#include "dp/laplace.h"
#include "index/binning.h"
#include "index/index.h"
#include "index/matching.h"
#include "index/overflow.h"
#include "net/payloads.h"
#include "record/dataset.h"
#include "record/secure_codec.h"

namespace {

fresque::index::DomainBinning NasaBinning() {
  auto b = fresque::index::DomainBinning::Create(0, 3421.0 * 1024.0, 1024.0);
  return std::move(b).ValueOrDie();
}

void BM_LeafOffset(benchmark::State& state) {
  auto binning = NasaBinning();
  double v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(binning.LeafOffset(v));
    v += 1234.5;
    if (v >= binning.domain_max()) v = 0;
  }
}
BENCHMARK(BM_LeafOffset);

void BM_TemplateCreate(benchmark::State& state) {
  auto binning = NasaBinning();
  fresque::crypto::SecureRandom rng(1);
  for (auto _ : state) {
    auto tmpl =
        fresque::index::IndexTemplate::Create(binning, 16, 1.0, &rng);
    benchmark::DoNotOptimize(tmpl);
  }
  state.SetLabel("3421 leaves, fanout 16");
}
BENCHMARK(BM_TemplateCreate);

void BM_LaplaceSample(benchmark::State& state) {
  fresque::crypto::SecureRandom rng(1);
  fresque::dp::LaplaceSampler sampler(4.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.SampleInteger());
  }
}
BENCHMARK(BM_LaplaceSample);

void BM_IndexTraverse(benchmark::State& state) {
  auto binning = NasaBinning();
  fresque::crypto::SecureRandom rng(1);
  auto tmpl = fresque::index::IndexTemplate::Create(binning, 16, 1.0, &rng);
  const auto& index = tmpl->noise_index();
  const double width = static_cast<double>(state.range(0)) * 1024.0;
  double lo = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Traverse({lo, lo + width}));
    lo += 977.0;
    if (lo + width >= binning.domain_max()) lo = 0;
  }
  state.SetLabel("query width " + std::to_string(state.range(0)) + " bins");
}
BENCHMARK(BM_IndexTraverse)->Arg(1)->Arg(64)->Arg(1024);

void BM_IndexSerializeRoundtrip(benchmark::State& state) {
  auto binning = NasaBinning();
  fresque::crypto::SecureRandom rng(1);
  auto tmpl = fresque::index::IndexTemplate::Create(binning, 16, 1.0, &rng);
  for (auto _ : state) {
    auto bytes = tmpl->noise_index().Serialize();
    auto back = fresque::index::HistogramIndex::Deserialize(bytes);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_IndexSerializeRoundtrip);

void BM_MatchingTableAdd(benchmark::State& state) {
  fresque::index::MatchingTable table;
  uint64_t tag = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Add(tag++, 7));
  }
}
BENCHMARK(BM_MatchingTableAdd);

// One merger publication at NASA geometry: the merged index, 16 overflow
// slots per leaf (the fqbench delta bound), kRemoved removed records and
// every other slot padded with a 64-byte-padding dummy, signed.
constexpr size_t kSlotsPerLeaf = 16;
constexpr size_t kRemoved = 200;
constexpr size_t kDummyPadding = 64;

class PublicationBuilder {
 public:
  PublicationBuilder()
      : binning_(NasaBinning()),
        rng_(1),
        tmpl_(std::move(fresque::index::IndexTemplate::Create(binning_, 16,
                                                              1.0, &rng_))
                  .ValueOrDie()),
        spec_(std::move(fresque::record::NasaDataset()).ValueOrDie()),
        codec_(std::move(fresque::record::SecureRecordCodec::Create(
                             fresque::Bytes(16, 0x21),
                             &spec_.parser->schema(), &rng_))
                   .ValueOrDie()),
        mac_key_(32, 0x42) {
    for (size_t i = 0; i < kRemoved; ++i) {
      removed_.push_back(codec_.EncryptDummy(80).ValueOrDie());  // 112 B
    }
  }

  const fresque::index::DomainBinning& binning() const { return binning_; }

  /// The merger's FinishPublication after the index merge: removed
  /// records into random slots, dummies encrypted in place into the rest,
  /// the payload signed.
  fresque::Bytes Build() {
    fresque::index::OverflowArrays overflow(binning_.num_bins(),
                                            kSlotsPerLeaf);
    for (size_t i = 0; i < removed_.size(); ++i) {
      (void)overflow.Insert((i * 977) % binning_.num_bins(), removed_[i],
                            &rng_);
    }
    return fresque::net::EncodeSignedIndexPublication(
               fresque::net::IndexPublication(tmpl_.noise_index(),
                                              std::move(overflow)),
               mac_key_,
               fresque::record::SecureRecordCodec::DummyCiphertextSize(
                   kDummyPadding),
               [&](uint8_t* slot, size_t) {
                 padder_.StageDummy(kDummyPadding, slot);
               },
               [&] { return padder_.Flush(); })
        .ValueOrDie();
  }

 private:
  fresque::index::DomainBinning binning_;
  fresque::crypto::SecureRandom rng_;
  fresque::index::IndexTemplate tmpl_;
  fresque::record::DatasetSpec spec_;
  fresque::record::SecureRecordCodec codec_;
  /// Kept across builds, as the merger keeps its padding encryptor.
  fresque::record::SecureRecordCodec::BatchEncryptor padder_{&codec_};
  fresque::Bytes mac_key_;
  std::vector<fresque::Bytes> removed_;
};

void BM_PublicationBuild(benchmark::State& state) {
  PublicationBuilder builder;
  size_t bytes = 0;
  for (auto _ : state) {
    fresque::Bytes payload = builder.Build();
    bytes = payload.size();
    benchmark::DoNotOptimize(payload);
  }
  state.SetLabel(std::to_string(bytes) + " B payload");
}
BENCHMARK(BM_PublicationBuild)->Unit(benchmark::kMillisecond);

// The cloud node's decode of a received payload (the payload copy and
// the publication's destruction are not timed).
void BM_PublicationDecode(benchmark::State& state) {
  const fresque::Bytes payload = PublicationBuilder().Build();
  for (auto _ : state) {
    state.PauseTiming();
    fresque::Bytes received = payload;
    state.ResumeTiming();
    auto pub = fresque::net::DecodeIndexPublication(std::move(received));
    if (!pub.ok()) state.SkipWithError("decode failed");
    state.PauseTiming();
    pub = fresque::Status::Cancelled("released untimed");
    state.ResumeTiming();
  }
}
BENCHMARK(BM_PublicationDecode)->Unit(benchmark::kMillisecond);

// SaveSnapshot of a store holding one installed NASA publication: the
// encode plus one write into the page cache.
void BM_SnapshotEncode(benchmark::State& state) {
  PublicationBuilder builder;
  fresque::cloud::CloudServer server(builder.binning());
  auto pub = fresque::net::DecodeIndexPublication(builder.Build());
  if (!server.StartPublication(0).ok() ||
      !server.PublishIndexed(0, std::move(*pub)).ok()) {
    state.SkipWithError("install failed");
    return;
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "bench_micro_index.snap")
          .string();
  for (auto _ : state) {
    if (!server.SaveSnapshot(path).ok()) state.SkipWithError("save failed");
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_SnapshotEncode)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
