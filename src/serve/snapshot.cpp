#include "serve/snapshot.hpp"

#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace dcs::serve {

namespace {

struct EpochMetrics {
  obs::Counter& published =
      obs::MetricsRegistry::instance().counter("serve.epoch.published");
  obs::Counter& retired =
      obs::MetricsRegistry::instance().counter("serve.epoch.retired");
  obs::Gauge& current =
      obs::MetricsRegistry::instance().gauge("serve.epoch.current");
  obs::Gauge& live = obs::MetricsRegistry::instance().gauge("serve.epoch.live");
};

EpochMetrics& epoch_metrics() {
  static EpochMetrics m;
  return m;
}

}  // namespace

SnapshotStore::SnapshotStore(Graph graph, Graph spanner,
                             SpannerCertificate cert)
    : retired_(std::make_shared<std::atomic<std::uint64_t>>(0)) {
  if (graph.num_vertices() != spanner.num_vertices()) {
    throw std::invalid_argument(
        "SnapshotStore: graph and spanner vertex counts differ");
  }
  n_ = graph.num_vertices();
  publish(std::move(graph), std::move(spanner), cert);
}

std::uint64_t SnapshotStore::publish(Graph graph, Graph spanner,
                                     SpannerCertificate cert) {
  if (graph.num_vertices() != n_ || spanner.num_vertices() != n_) {
    throw std::invalid_argument(
        "SnapshotStore::publish: vertex count does not match the store");
  }
  ServeSnapshot snap;
  snap.epoch = epoch_.load(std::memory_order_relaxed) + 1;
  snap.graph = std::move(graph);
  snap.spanner = std::move(spanner);
  snap.adjacency = AdjacencyBitmap::build_if_worthwhile(snap.spanner);
  snap.certificate = cert;
  const std::uint64_t epoch = snap.epoch;
  SnapshotRef next = wrap(std::move(snap));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // The superseded snapshot's last reference may drop right here (no
    // reader pinned it) — the deleter tallies retirement either way.
    current_ = std::move(next);
    epoch_.store(epoch, std::memory_order_release);
  }
  published_.fetch_add(1, std::memory_order_relaxed);
  EpochMetrics& m = epoch_metrics();
  m.published.inc();
  m.current.set(static_cast<double>(epoch));
  m.live.set(static_cast<double>(live()));
  return epoch;
}

SnapshotRef SnapshotStore::pin() const {
  pins_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

SnapshotRef SnapshotStore::pin_if_newer(std::uint64_t epoch) const {
  if (epoch_.load(std::memory_order_acquire) <= epoch) {
    pin_skips_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  // The epoch may advance again between the check and the pin; the caller
  // gets the newest snapshot either way, which is still strictly newer
  // than `epoch` (epochs are monotone and swapped under mutex_).
  return pin();
}

SnapshotRef SnapshotStore::wrap(ServeSnapshot&& snapshot) {
  // The deleter owns the tally (not `this`): snapshots pinned by readers
  // may legitimately outlive the store, and retirement must still count.
  auto tally = retired_;
  auto* raw = new ServeSnapshot(std::move(snapshot));
  return SnapshotRef(raw, [tally](const ServeSnapshot* p) {
    tally->fetch_add(1, std::memory_order_relaxed);
    epoch_metrics().retired.inc();
    delete p;
  });
}

}  // namespace dcs::serve
