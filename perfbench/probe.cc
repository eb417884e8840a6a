// pb_probe — the benchmark's in-process side: it generates the dataset
// and times single layers by calling each module's public functions.
//
//   pb_probe gen ROOT COPY SEED EPOCHS OUTDIR FILES
//       workload::generate_tree of FILES samples, log-normal around
//       24 KiB, into ROOT and into COPY (the node-local copy);
//       manifest.txt (path size hash of the generator's contents) and
//       order_<e>.txt (EpochShuffler orders).
//   pb_probe pack ROOT
//       storage::pack_tree, as `hvacctl pack` does it.
//   pb_probe pfs-epoch PFS_ROOT MANIFEST ORDER OUT
//       the loader's epoch loop (pipeline.h) reading straight from the
//       GPFS-like PfsBackend.
//   pb_probe ladder SERVERS DATASET MANIFEST IDX WARM PHYS OUT SPANS
//       rungs 0 (pread of the cached copy), 2 (RpcClient) and 3
//       (HvacClient) on the IDX samples, each read once per rung after
//       an untimed pass over the WARM samples; plus stat and
//       checkpoint writes through HvacClient.
//   pb_probe layers PFS_ROOT MANIFEST IDX SCRATCH OUT SPANS
//       PfsBackend::copy_out, DataMover::fetch on a fresh cache,
//       WriteJournal append/commit and FlushManager submit->flushed.
#include <fcntl.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "client/hvac_client.h"
#include "common.h"
#include "common/env.h"
#include "core/cache_manager.h"
#include "core/data_mover.h"
#include "core/eviction.h"
#include "core/flush_manager.h"
#include "pipeline.h"
#include "rpc/rpc_client.h"
#include "rpc/wire.h"
#include "server/hvac_proto.h"
#include "storage/local_store.h"
#include "storage/packed_format.h"
#include "storage/pfs_backend.h"
#include "storage/posix_file.h"
#include "storage/write_journal.h"
#include "workload/dataset_spec.h"
#include "workload/file_tree.h"
#include "workload/shuffler.h"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "pb_probe: %s\n", msg.c_str());
  std::exit(1);
}

template <typename T>
T must(hvac::Result<T> r, const char* what) {
  if (!r.ok()) die(std::string(what) + ": " + r.error().to_string());
  return std::move(r).value();
}

void must(const hvac::Status& s, const char* what) {
  if (!s.ok()) die(std::string(what) + ": " + s.error().to_string());
}

double us_since(uint64_t t0) { return double(now_ns() - t0) / 1e3; }

// ---- gen ------------------------------------------------------------------

int cmd_gen(char** a) {
  const std::string root = a[0], copy = a[1], outdir = a[4];
  const uint64_t seed = std::strtoull(a[2], nullptr, 10);
  const uint32_t epochs = uint32_t(std::strtoul(a[3], nullptr, 10));
  const uint64_t files = std::strtoull(a[5], nullptr, 10);
  // ImageNet-style loose samples; the seed in the name keeps file names
  // distinct between seeds.
  hvac::workload::DatasetSpec spec =
      hvac::workload::synthetic_small(files, 24 * 1024, 0.6);
  spec.name = "s" + std::to_string(seed) + "img";
  const auto tree = must(hvac::workload::generate_tree(root, spec, seed),
                         "generate_tree");
  must(hvac::workload::generate_tree(copy, spec, seed), "generate_tree copy");
  std::ofstream m(outdir + "/manifest.txt");
  for (size_t k = 0; k < tree.relative_paths.size(); ++k) {
    const auto bytes = hvac::workload::expected_contents(
        tree.relative_paths[k], tree.sizes[k]);
    m << tree.relative_paths[k] << ' ' << tree.sizes[k] << ' '
      << hash_bytes(bytes.data(), bytes.size()) << '\n';
  }
  const hvac::workload::EpochShuffler shuffler(files, seed);
  for (uint32_t e = 0; e < epochs; ++e) {
    std::ofstream o(outdir + "/order_" + std::to_string(e) + ".txt");
    for (uint64_t i : shuffler.shuffled(e)) o << i << '\n';
  }
  return m.good() ? 0 : 1;
}

// ---- pack -------------------------------------------------------------------

int cmd_pack(char** a) {
  const auto report = must(hvac::storage::pack_tree(a[0]), "pack_tree");
  return report.files > 0 ? 0 : 1;
}

// ---- pfs-epoch --------------------------------------------------------------

int cmd_pfs_epoch(char** a) {
  hvac::storage::PfsBackend pfs(a[0], hvac::storage::gpfs_like_options());
  const std::vector<Sample> manifest = read_manifest(a[1]);
  const EpochResult r = run_epoch(
      manifest, read_indices(a[2]), false,
      [&](const Sample& s, uint8_t* buf, size_t cap, SpanLog*, uint64_t) {
        ReadOutcome out;
        auto f = pfs.open(s.path);
        if (!f.ok()) return out;
        for (;;) {
          auto n = pfs.pread(*f, buf + out.size, cap - out.size, out.size);
          if (!n.ok()) return out;
          if (*n == 0) break;
          out.size += *n;
        }
        out.ok = true;
        return out;
      });
  return write_text(a[3], epoch_json(r)) ? 0 : 1;
}

// ---- ladder -----------------------------------------------------------------

struct Rung {
  std::vector<double> open_us, read_us, close_us, total_us;
  void add(double o, double r, double c) {
    open_us.push_back(o);
    read_us.push_back(r);
    close_us.push_back(c);
    total_us.push_back(o + r + c);
  }
  std::string json() const {
    Json j;
    j.list("open_us", open_us).list("read_us", read_us)
        .list("close_us", close_us).list("total_us", total_us);
    return j.done();
  }
};

int cmd_ladder(char** a) {
  const std::vector<std::string> servers = hvac::split_csv(a[0]);
  const std::string dataset = a[1];
  const std::vector<Sample> manifest = read_manifest(a[2]);
  const std::vector<uint32_t> idx = read_indices(a[3]);
  std::vector<std::pair<std::string, uint64_t>> phys;
  {
    std::ifstream in(a[5]);
    std::string p;
    uint64_t base;
    while (in >> p >> base) phys.emplace_back(p, base);
  }
  if (phys.size() != idx.size()) die("ladder: one physical path per sample");
  const std::vector<uint32_t> warm = read_indices(a[4]);
  size_t cap = 1;
  for (uint32_t i : idx) cap = std::max<size_t>(cap, manifest[i].size + 1);
  for (uint32_t i : warm) cap = std::max<size_t>(cap, manifest[i].size + 1);
  std::vector<uint8_t> buf(cap);
  uint64_t failed = 0, attempted = 0;
  const auto check = [&](const Sample& s, size_t got) {
    if (got != s.size || hash_bytes(buf.data(), got) != s.hash) ++failed;
  };

  hvac::client::HvacClientOptions copt;
  copt.dataset_dir = dataset;
  copt.server_endpoints = servers;
  hvac::rpc::RpcClient rpc(hvac::rpc::Endpoint{servers.at(0)});
  Rung r0, r2, r3;
  std::vector<double> stat_us, r2_cpu_us, r2_wall_us;
  std::vector<Span> spans;
  uint64_t next_id = 1;
  // One span per rung per sample, ending now.
  const auto span = [&](const char* name, uint64_t sample, uint64_t start) {
    spans.push_back(Span{name, next_id++, 0, sample, start, now_ns()});
  };

  // Each sample is opened once per rung: the client metadata cache
  // never answers an open, as in an epoch. The warm-up pass dials the
  // channels and faults the code paths in, untimed.
  hvac::client::HvacClient client(copt);
  for (int pass = 0; pass < 2; ++pass) {
    const std::vector<uint32_t>& list = pass == 0 ? warm : idx;
    const bool timed = pass == 1;
    for (size_t k = 0; k < list.size(); ++k) {
      const Sample& s = manifest[list[k]];
      const std::string logical = s.path;
      const std::string full = dataset + "/" + s.path;

      // Rung 0: pread of the cached copy (timed samples only).
      if (timed) {
        const uint64_t s0 = now_ns();
        uint64_t t0 = s0;
        const int fd = ::open(phys[k].first.c_str(), O_RDONLY);
        const double o0 = us_since(t0);
        t0 = now_ns();
        size_t got = 0;
        while (fd >= 0 && got < s.size) {
          const ssize_t n = ::pread(fd, buf.data() + got, s.size - got,
                                    off_t(phys[k].second + got));
          if (n <= 0) break;
          got += size_t(n);
        }
        const double rd0 = us_since(t0);
        t0 = now_ns();
        if (fd >= 0) ::close(fd);
        r0.add(o0, rd0, us_since(t0));
        span("storage.sample", list[k], s0);
        check(s, got);
      }
      // Rung 2: open/read/close over one RpcClient channel.
      const uint64_t cpu0 = thread_cpu_ns();
      const uint64_t w0 = now_ns();
      uint64_t t0 = w0;
      hvac::rpc::WireWriter ow;
      ow.put_string(logical);
      auto open_resp = rpc.call(hvac::proto::kOpen, ow);
      const double o2 = us_since(t0);
      uint64_t remote_fd = 0;
      size_t got = 0;
      t0 = now_ns();
      if (open_resp.ok()) {
        hvac::rpc::WireReader rr(*open_resp);
        remote_fd = rr.get_u64().value_or(0);
        while (got < s.size) {
          const uint32_t want = uint32_t(std::min<uint64_t>(
              s.size - got, hvac::proto::kMaxReadChunk));
          hvac::rpc::WireWriter w;
          w.put_u64(remote_fd);
          w.put_u64(got);
          w.put_u32(want);
          auto resp = rpc.call_payload(hvac::proto::kRead, w.bytes());
          if (!resp.ok()) break;
          hvac::rpc::WireReader br(resp->data(), resp->size());
          auto view = br.get_blob_view();
          if (!view.ok() || view->size == 0) break;
          std::memcpy(buf.data() + got, view->data, view->size);
          got += view->size;
        }
      }
      const double rd2 = us_since(t0);
      t0 = now_ns();
      if (open_resp.ok()) {
        hvac::rpc::WireWriter cw;
        cw.put_u64(remote_fd);
        if (!rpc.call(hvac::proto::kClose, cw).ok()) ++failed;
      }
      const double c2 = us_since(t0);
      const double wall2 = us_since(w0);
      const double cpu2 = double(thread_cpu_ns() - cpu0) / 1e3;
      if (timed) {
        r2.add(o2, rd2, c2);
        r2_wall_us.push_back(wall2);
        r2_cpu_us.push_back(cpu2);
        span("rpc.sample", list[k], w0);
      }
      check(s, got);

      t0 = now_ns();
      hvac::rpc::WireWriter sw;
      sw.put_string(logical);
      if (!rpc.call_idempotent(hvac::proto::kStat, sw).ok()) ++failed;
      if (timed) stat_us.push_back(us_since(t0));

      // Rung 3: the client library the shim wraps.
      const uint64_t s3 = now_ns();
      t0 = s3;
      auto vfd = client.open(full);
      const double o3 = us_since(t0);
      got = 0;
      t0 = now_ns();
      if (vfd.ok()) {
        for (;;) {
          auto n = client.read(*vfd, buf.data() + got, cap - got);
          if (!n.ok() || *n == 0) break;
          got += *n;
        }
      }
      const double rd3 = us_since(t0);
      t0 = now_ns();
      if (vfd.ok() && !client.close(*vfd).ok()) ++failed;
      if (timed) {
        r3.add(o3, rd3, us_since(t0));
        span("client.sample", list[k], s3);
      }
      check(s, got);
      attempted += timed ? 3 : 2;
    }
  }

  // Checkpoint writes through the client: 4 MiB writes, fsync, close.
  std::vector<double> write_us, fsync_ms;
  {
    hvac::client::HvacClient client(copt);
    std::vector<uint8_t> chunk(4u << 20, 0x5A);
    for (int save = 0; save < 3; ++save) {
      auto vfd = client.open_write(dataset + "/checkpoints/probe.pt", true);
      ++attempted;
      if (!vfd.ok()) {
        ++failed;
        continue;
      }
      for (int w = 0; w < 4; ++w) {
        const uint64_t t0 = now_ns();
        if (!client.write(*vfd, chunk.data(), chunk.size()).ok()) ++failed;
        write_us.push_back(us_since(t0));
      }
      const uint64_t t0 = now_ns();
      if (!client.fsync(*vfd).ok()) ++failed;
      fsync_ms.push_back(us_since(t0) / 1e3);
      if (!client.close(*vfd).ok()) ++failed;
    }
  }

  Json j;
  j.raw("rung0", r0.json()).raw("rung2", r2.json()).raw("rung3", r3.json())
      .list("stat_us", stat_us).list("rung2_wall_us", r2_wall_us)
      .list("rung2_cpu_us", r2_cpu_us).list("client_write_us", write_us)
      .list("client_fsync_ms", fsync_ms).num("failed", double(failed))
      .num("attempted", double(attempted));
  write_spans(a[7], spans);
  return write_text(a[6], j.done()) ? 0 : 1;
}

// ---- layers -----------------------------------------------------------------

int cmd_layers(char** a) {
  const std::string pfs_root = a[0];
  const std::vector<Sample> manifest = read_manifest(a[1]);
  const std::vector<uint32_t> idx = read_indices(a[2]);
  const std::string scratch = a[3];
  must(hvac::storage::make_directories(scratch), "scratch dir");
  std::vector<Span> spans;
  uint64_t next_id = 1;
  const auto timed = [&](const char* name, uint64_t sample, auto&& fn) {
    const uint64_t t0 = now_ns();
    fn();
    spans.push_back(Span{name, next_id++, 0, sample, t0, now_ns()});
    return double(spans.back().end_ns - t0) / 1e6;
  };

  // PFS copy-out, as the mover does it, on the GPFS-like backend.
  hvac::storage::PfsBackend pfs(pfs_root, hvac::storage::gpfs_like_options());
  std::vector<double> copy_ms;
  const size_t half = idx.size() / 2;
  for (size_t k = 0; k < half; ++k) {
    const std::string dst = scratch + "/copy.bin";
    copy_ms.push_back(timed("storage.pfs_copy", idx[k], [&] {
      must(pfs.copy_out(manifest[idx[k]].path, dst), "copy_out");
    }));
  }

  // DataMover::fetch into a fresh cache over the same throttled PFS.
  std::vector<double> fetch_ms;
  uint64_t dedup = 0;
  {
    hvac::core::CacheManager cache(
        &pfs, std::make_unique<hvac::storage::LocalStore>(scratch + "/cache"),
        hvac::core::make_eviction_policy("random"));
    hvac::core::DataMover mover(&cache, 2);
    for (size_t k = half; k < idx.size(); ++k) {
      fetch_ms.push_back(timed("core.mover_fetch", idx[k], [&] {
        must(mover.fetch(manifest[idx[k]].path), "mover fetch");
      }));
    }
    dedup = mover.dedup_coalesced();
    mover.shutdown();
  }

  // Write-ahead journal: 1 MiB appends, commit every 4.
  std::vector<double> append_us, commit_ms;
  double journal_ratio = 0;
  {
    auto journal = must(hvac::storage::WriteJournal::open(scratch + "/journal"),
                        "journal open");
    std::vector<uint8_t> data(1u << 20, 0xA5);
    uint64_t payload = 0;
    for (int i = 0; i < 32; ++i) {
      append_us.push_back(1e3 * timed("storage.journal_append", uint64_t(i), [&] {
        must(journal->append_write("checkpoints/j.pt", payload, data.data(),
                                   data.size()),
             "journal append");
      }));
      payload += data.size();
      if (i % 4 == 3) {
        commit_ms.push_back(timed("storage.journal_commit", uint64_t(i), [&] {
          must(journal->commit(), "journal commit");
        }));
      }
    }
    journal_ratio = double(journal->size_bytes()) / double(payload);
  }

  // FlushManager: submit -> flushed callback, copy_in on the same PFS.
  std::vector<double> flush_ms;
  uint64_t flush_retries = 0;
  {
    const std::string local = scratch + "/flush_src.bin";
    std::vector<uint8_t> data(16u << 20, 0x3C);
    must(hvac::storage::write_file(local, data.data(), data.size()),
         "flush source");
    std::mutex mu;
    std::condition_variable cv;
    int flushed = 0;
    hvac::core::FlushManager flusher(
        hvac::core::FlushManager::Options{},
        [&](const std::string& logical) {
          return pfs.copy_in(local, logical).ok()
                     ? hvac::Status::Ok()
                     : hvac::Status(hvac::Error(hvac::ErrorCode::kIoError, "copy_in"));
        },
        [&](const std::string&) {
          std::lock_guard<std::mutex> lock(mu);
          ++flushed;
          cv.notify_all();
        });
    for (int i = 0; i < 3; ++i) {
      flush_ms.push_back(timed("core.flush", uint64_t(i), [&] {
        must(flusher.submit("checkpoints/flush_probe.pt"), "flush submit");
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return flushed > i; });
      }));
    }
    flush_retries = flusher.stats().retries;
    flusher.shutdown();
    ::unlink((pfs_root + "/checkpoints/flush_probe.pt").c_str());
  }
  std::error_code ec;
  fs::remove_all(scratch, ec);

  Json j;
  j.list("pfs_copy_ms", copy_ms).list("mover_fetch_ms", fetch_ms)
      .num("dedup_coalesced", double(dedup)).list("journal_append_us", append_us)
      .list("journal_commit_ms", commit_ms)
      .num("journal_bytes_per_user_byte", journal_ratio)
      .list("flush_ms", flush_ms).num("flush_retries", double(flush_retries));
  write_spans(a[5], spans);
  return write_text(a[4], j.done()) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  const auto need = [&](int n) {
    if (argc < n + 2) die(cmd + ": expected " + std::to_string(n) + " arguments");
    return argv + 2;
  };
  if (cmd == "gen") return cmd_gen(need(6));
  if (cmd == "pack") return cmd_pack(need(1));
  if (cmd == "pfs-epoch") return cmd_pfs_epoch(need(4));
  if (cmd == "ladder") return cmd_ladder(need(8));
  if (cmd == "layers") return cmd_layers(need(6));
  die("usage: pb_probe gen|pack|pfs-epoch|ladder|layers ...");
}
