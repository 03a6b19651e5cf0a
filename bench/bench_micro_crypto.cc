// Micro-benchmarks of the crypto substrate, reported per backend: every
// AES, SHA-256, HMAC-SHA-256 and ChaCha20 (SecureRandom) operation runs
// against the portable implementation AND the hardware backend (AES-NI /
// ARMv8 CE, SHA-NI, AVX2/SSE2) when this CPU has one, side by side, so a
// run shows exactly what the dispatch layer buys. Results also land in
// machine-readable micro_crypto.json.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "crypto/aes.h"
#include "crypto/cbc.h"
#include "crypto/chacha20.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace {

using fresque::Bytes;
using fresque::Status;
using fresque::Stopwatch;
using fresque::bench::Fmt;
using fresque::bench::TableWriter;
using fresque::bench::ValueOrExit;
using fresque::crypto::Aes;
using fresque::crypto::AesCbc;
using fresque::crypto::Backend;
using fresque::crypto::ChaCha20;
using fresque::crypto::HmacSha256;
using fresque::crypto::SecureRandom;
using fresque::crypto::Sha256;

struct JsonRow {
  std::string op;
  std::string backend;
  double ns_per_op = 0;
  size_t bytes_per_op = 0;
};

std::vector<JsonRow> g_rows;

/// Times `op` (called once per iteration) and returns mean ns/op. Two
/// phases: a short calibration run sizes the measured run to ~0.2s so
/// fast ops get enough iterations to dominate timer overhead.
template <typename Op>
double TimeNs(Op&& op) {
  constexpr double kTargetNs = 2e8;
  size_t iters = 1;
  for (;;) {
    Stopwatch w;
    for (size_t i = 0; i < iters; ++i) op();
    double ns = static_cast<double>(w.ElapsedNanos());
    if (ns >= kTargetNs / 4 || iters >= (1u << 24)) {
      return ns / static_cast<double>(iters);
    }
    double scale = ns > 0 ? kTargetNs / ns : 16.0;
    if (scale > 16.0) scale = 16.0;
    if (scale < 2.0) scale = 2.0;
    iters = static_cast<size_t>(static_cast<double>(iters) * scale);
  }
}

void Record(const std::string& op, const std::string& backend, double ns,
            size_t bytes) {
  g_rows.push_back({op, backend, ns, bytes});
}

/// The hardware backend of one primitive on this CPU, probed
/// independently of the FRESQUE_FORCE_SOFT_CRYPTO override so the bench
/// always compares both implementations when the silicon has them.
struct HwBackend {
  bool available;
  std::string name;  ///< "aesni", "shani", "avx2", ... or "-"
};

HwBackend AesHw() {
  auto aes = Aes::Create(Bytes(16, 0), Backend::kHardware);
  return {aes.ok(), aes.ok() ? aes->backend_name() : "-"};
}

HwBackend Sha256Hw() {
  const bool ok = Sha256::HardwareBackendAvailable();
  return {ok, ok ? Sha256(Backend::kHardware).backend_name() : "-"};
}

HwBackend ChaCha20Hw() {
  const bool ok = ChaCha20::HardwareBackendAvailable();
  return {ok, ok ? ChaCha20({}, {}, 0, Backend::kHardware).backend_name()
                 : "-"};
}

/// One op measured under both backends; emits a soft / hw / speedup
/// table row and two JSON rows (hw columns are "-" without hardware).
template <typename MakeOp>
void SideBySide(TableWriter& table, const HwBackend& hw, const std::string& op,
                size_t bytes, MakeOp&& make_op) {
  double soft_ns = TimeNs(make_op(Backend::kSoftware));
  Record(op, "soft", soft_ns, bytes);
  if (!hw.available) {
    table.Row({op, Fmt(soft_ns, "%.1f"), "-", "-"});
    return;
  }
  double hw_ns = TimeNs(make_op(Backend::kHardware));
  Record(op, hw.name, hw_ns, bytes);
  table.Row({op, Fmt(soft_ns, "%.1f"), Fmt(hw_ns, "%.1f"),
             Fmt(soft_ns / hw_ns, "%.1fx")});
}

void WriteJson(const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"active_backend\": \"" << Aes::ActiveBackendName()
      << "\",\n  \"hardware_available\": "
      << (Aes::HardwareBackendAvailable() ? "true" : "false")
      << ",\n  \"active_sha256_backend\": \"" << Sha256::ActiveBackendName()
      << "\",\n  \"active_chacha20_backend\": \""
      << ChaCha20::ActiveBackendName() << "\",\n  \"results\": [\n";
  for (size_t i = 0; i < g_rows.size(); ++i) {
    const auto& r = g_rows[i];
    out << "    {\"op\": \"" << r.op << "\", \"backend\": \"" << r.backend
        << "\", \"ns_per_op\": " << Fmt(r.ns_per_op, "%.1f")
        << ", \"bytes_per_op\": " << r.bytes_per_op << "}"
        << (i + 1 < g_rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "[json] " << path << "\n";
}

}  // namespace

int main() {
  std::cout << "active backends: aes " << Aes::ActiveBackendName()
            << ", sha256 " << Sha256::ActiveBackendName() << ", chacha20 "
            << ChaCha20::ActiveBackendName() << "\n";
  const HwBackend aes_hw = AesHw();

  TableWriter table("AES backends side by side (ns/op)",
                    {"op", "soft_ns", "hw_ns", "speedup"});

  SideBySide(table, aes_hw, "aes128_block_encrypt", 16, [](Backend b) {
    auto aes = ValueOrExit(Aes::Create(Bytes(16, 0x42), b));
    return [aes = std::move(aes)]() mutable {
      uint8_t block[16] = {};
      aes.EncryptBlock(block, block);
    };
  });

  for (size_t len : {size_t{48}, size_t{120}, size_t{1024}, size_t{16384}}) {
    SideBySide(table, aes_hw, "aes128_cbc_encrypt_" + std::to_string(len), len,
               [len](Backend b) {
                 auto cbc = ValueOrExit(AesCbc::Create(Bytes(16, 0x42), b));
                 fresque::crypto::SecureRandom rng(1);
                 Bytes payload = rng.RandomBytes(len);
                 return [cbc = std::move(cbc), rng, payload]() mutable {
                   auto ct = cbc.Encrypt(payload, [&](uint8_t* out, size_t n) {
                     rng.Fill(out, n);
                   });
                   if (!ct.ok()) std::exit(1);
                 };
               });
  }

  // The pipeline's actual shape: 64 independent record-sized plaintexts
  // encrypted as one interleaved batch (what a computing node does per
  // inbox batch). ns/op covers the whole 64-record batch; divide by 64 to
  // compare with the single-message rows above.
  SideBySide(table, aes_hw, "aes128_cbc_encrypt_batch64_of_120", 120,
             [](Backend b) {
               auto cbc = ValueOrExit(AesCbc::Create(Bytes(16, 0x42), b));
               fresque::crypto::SecureRandom rng(1);
               constexpr size_t kBatch = 64;
               auto plains = std::make_shared<std::vector<Bytes>>();
               auto outs = std::make_shared<std::vector<Bytes>>(kBatch);
               for (size_t i = 0; i < kBatch; ++i) {
                 plains->push_back(rng.RandomBytes(120));
               }
               auto scratch =
                   std::make_shared<fresque::crypto::CbcBatchScratch>();
               return [cbc = std::move(cbc), rng, plains, outs,
                       scratch]() mutable {
                 fresque::crypto::CbcBatchItem items[kBatch];
                 for (size_t i = 0; i < kBatch; ++i) {
                   items[i] = {(*plains)[i].data(), (*plains)[i].size(),
                               &(*outs)[i]};
                 }
                 Status st = cbc.EncryptBatch(
                     items, kBatch,
                     [&](uint8_t* out, size_t n) { rng.Fill(out, n); },
                     scratch.get());
                 if (!st.ok()) std::exit(1);
               };
             });

  for (size_t len : {size_t{120}, size_t{1024}}) {
    SideBySide(table, aes_hw, "aes128_cbc_decrypt_" + std::to_string(len), len,
               [len](Backend b) {
                 auto cbc = ValueOrExit(AesCbc::Create(Bytes(16, 0x42), b));
                 fresque::crypto::SecureRandom rng(1);
                 Bytes payload = rng.RandomBytes(len);
                 auto ct = ValueOrExit(cbc.Encrypt(
                     payload,
                     [&](uint8_t* out, size_t n) { rng.Fill(out, n); }));
                 return [cbc = std::move(cbc), ct = std::move(ct)]() mutable {
                   auto pt = cbc.Decrypt(ct);
                   if (!pt.ok()) std::exit(1);
                 };
               });
  }

  TableWriter hashes("SHA-256 / HMAC-SHA-256 backends side by side (ns/op)",
                     {"op", "soft_ns", "hw_ns", "speedup"});
  const HwBackend sha_hw = Sha256Hw();
  for (size_t len : {size_t{64}, size_t{1024}, size_t{65536}}) {
    SideBySide(hashes, sha_hw, "sha256_" + std::to_string(len), len,
               [len](Backend b) {
                 Bytes payload = SecureRandom(1).RandomBytes(len);
                 return [b, payload = std::move(payload)] {
                   Sha256 h(b);
                   h.Update(payload);
                   auto d = h.Finish();
                   (void)d;
                 };
               });
  }
  // 128 B is a key-derivation-sized message; 65536 B shows the per-byte
  // rate that signing a multi-megabyte publication runs at.
  for (size_t len : {size_t{128}, size_t{65536}}) {
    SideBySide(hashes, sha_hw, "hmac_sha256_" + std::to_string(len), len,
               [len](Backend b) {
                 Bytes payload = SecureRandom(1).RandomBytes(len);
                 return [b, payload = std::move(payload)] {
                   HmacSha256 mac(Bytes(32, 0x11), b);
                   mac.Update(payload);
                   auto d = mac.Finish();
                   (void)d;
                 };
               });
  }

  TableWriter streams("ChaCha20 (SecureRandom) backends side by side (ns/op)",
                      {"op", "soft_ns", "hw_ns", "speedup"});
  const HwBackend chacha_hw = ChaCha20Hw();
  // 16 B is an IV draw, 80 B a dummy's padding plus IV, 4096 B a bulk fill.
  for (size_t len : {size_t{16}, size_t{80}, size_t{4096}}) {
    SideBySide(streams, chacha_hw, "chacha20_fill_" + std::to_string(len),
               len, [len](Backend b) {
                 return [rng = SecureRandom(1, b), buf = Bytes(len)]() mutable {
                   rng.Fill(buf.data(), buf.size());
                 };
               });
  }

  WriteJson("micro_crypto.json");
  return 0;
}
