#pragma once

// Always-on black-box flight recorder.
//
// The metrics registry answers "how many sheds so far"; the flight recorder
// answers "what happened right before things went wrong". Every thread owns a
// small bounded ring of recent structured events — epoch publishes, ladder
// transitions, sheds with reasons, repair outcomes, check failures — written
// with a handful of relaxed atomic stores and never blocking on a lock. When
// a soak invariant fires, a DCS_CHECK_ABORT trips, or a fatal signal lands,
// the merged time-ordered tail is dumped to `flight.json` so the last few
// hundred events per thread survive into the artifacts next to
// `minimized.txt`.
//
// Concurrency model: each ring has exactly one writer (its owning thread).
// Readers (snapshot/dump, possibly concurrent with writers) validate each
// slot with a per-slot sequence number derived from the monotonically
// increasing event index — a slot is accepted only if the sequence read
// before and after the payload both equal the expected value for that event
// index, so a torn read of a slot being overwritten is discarded rather than
// surfaced. All payload fields are themselves atomics accessed relaxed,
// keeping the scheme TSan-clean.
//
// `detail` must be a string literal (or otherwise immortal): the recorder
// stores the pointer, never a copy, so the record path stays allocation-free.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dcs::obs {

enum class FlightEventKind : std::uint8_t {
  kEpochPublish,  ///< supervisor published a snapshot; a = epoch, b = wave
  kEpochAdopt,    ///< query engine adopted an epoch; a = epoch, b = rows dropped
  kLadder,        ///< supervisor ladder transition; a = from, b = to
  kShed,          ///< queries shed; detail = reason, a = count, b = epoch
                  ///< (degraded) or 1-based dispatcher id (deadline)
  kRepair,        ///< repair/rebuild outcome; a = repaired, b = debt left
  kCheckFail,     ///< DCS_CHECK_ABORT / armed failure hook fired
  kInvariant,     ///< soak invariant violated; detail = invariant, a = wave
  kCustom,        ///< anything else; meaning of a/b is site-defined
};

/// Stable lowercase-dashed name ("epoch-publish", "shed", ...).
const char* to_string(FlightEventKind kind);

struct FlightEvent {
  double ts_us = 0.0;       ///< Trace::now_us() — shared obs epoch
  std::uint32_t tid = 0;    ///< Trace::thread_id() of the recording thread
  FlightEventKind kind = FlightEventKind::kCustom;
  const char* detail = "";  ///< string literal; never owned
  std::uint64_t a = 0;      ///< kind-specific payload (see enum docs)
  std::uint64_t b = 0;
};

class FlightRecorder {
 public:
  /// Process-wide recorder (rings are intentionally leaked so events from
  /// exiting threads remain dumpable until process end).
  static FlightRecorder& instance();

  /// Appends one event to the calling thread's ring. Lock-free and wait-free
  /// after the thread's first call (which registers the ring). `detail` must
  /// be a string literal. No-op while disabled.
  void record(FlightEventKind kind, const char* detail, std::uint64_t a = 0,
              std::uint64_t b = 0);

  /// The recorder is on by default ("always-on"); disabling makes record()
  /// a single relaxed load + branch.
  void set_enabled(bool enabled);
  bool enabled() const;

  /// Per-thread ring capacity for rings created *after* this call (existing
  /// rings keep their size). 0 is rejected; call set_enabled(false) to turn
  /// the recorder off instead.
  void set_capacity(std::size_t events_per_thread);
  std::size_t capacity() const;

  /// Merged snapshot of all rings, sorted by timestamp. Safe to call while
  /// other threads record; slots overwritten mid-read are skipped.
  std::vector<FlightEvent> snapshot() const;

  /// The most recent `max_events` of snapshot() (all of them if 0).
  std::vector<FlightEvent> tail(std::size_t max_events) const;

  /// {"flight":[{"ts_us":..,"tid":..,"kind":"shed","detail":..,"a":..,"b":..},..]}
  /// Events are time-ordered; `max_events` 0 means no limit.
  std::string to_json(std::size_t max_events = 0) const;

  /// Writes to_json() to `path` (best effort: returns false instead of
  /// throwing so it is usable from failure paths).
  bool dump(const std::string& path) const;

  /// Hides all currently recorded events from future snapshots (test hook;
  /// safe with concurrent writers — events recorded after clear() show up).
  void clear();

  /// Arms crash dumping: on DCS_CHECK_ABORT (via the check-failure hook) and
  /// — when `install_signal_handlers` — on SIGABRT/SIGSEGV/SIGBUS/SIGFPE/
  /// SIGILL, the recorder appends a check-fail event and writes `path`
  /// before the process dies. Re-arming replaces the path.
  void arm_crash_dump(const std::string& path,
                      bool install_signal_handlers = true);

  /// Immediately writes the armed crash-dump path (no-op when unarmed).
  /// async-signal-cautious: fixed buffers, write(2), no allocation.
  static void crash_dump_now() noexcept;

 private:
  FlightRecorder() = default;
};

}  // namespace dcs::obs
