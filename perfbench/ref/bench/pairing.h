// Paired timing against a pinned reference build.
//
// On a shared host the same instructions can run up to twice as slowly
// from one minute to the next, so a wall-clock rate taken alone says more
// about the neighbours than about the program. The benchmark therefore
// runs a second process, the reference: the simulator and this benchmark
// exactly as they were when the benchmark was defined (perfbench/ref/,
// never edited), on the default seed. The two processes take turns —
// never both at once — handing over after every timed piece of work (a
// run_until step, a batch of controller ops, a flow-sim unit). Host
// slowdowns hit both sides of a turn alike (both are pinned to one CPU),
// so the reference's rate over the run measures how fast the host was,
// and the current build's figures are scaled to the reference's nominal
// speed (see PairedSpeed).
//
// Protocol: the reference reads one byte per turn on fd 3 and answers
// with one Piece on fd 4; EOF on fd 3 ends it.
#pragma once

#include <sys/types.h>

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// What one side did in one turn: its work (simulated ms, controller ops,
/// simulated s — the workload's throughput unit) and the wall seconds of
/// the timed part.
struct Piece {
  double work = 0;
  double seconds = 0;
};

/// The side of the hand-over that a workload loop sees: call yield() after
/// every timed piece with that piece's work and seconds.
class Turns {
 public:
  virtual ~Turns() = default;
  virtual void yield(const Piece& mine) = 0;
};

/// The benchmark's side. Starts `binary --serve-reference <workload>`,
/// waits for its first piece, and on every yield() lets it run one more.
/// The destructor closes the pipe and waits for the process to end.
class Pairing final : public Turns {
 public:
  Pairing(const std::string& binary, const std::string& workload);
  ~Pairing() override;
  Pairing(const Pairing&) = delete;
  Pairing& operator=(const Pairing&) = delete;

  void yield(const Piece& mine) override;

  /// Totals over the reference's pieces.
  const Piece& reference() const { return ref_; }
  /// Every hand-over in order: the benchmark's piece, then the reference's
  /// turn after it. The reference's first piece, run before ours, is
  /// `first()`.
  const std::vector<std::pair<Piece, Piece>>& log() const { return log_; }
  const Piece& first() const { return first_; }

 private:
  Piece receive();
  void stop();

  pid_t pid_ = -1;
  int to_ref_ = -1;    ///< write end of the reference's fd 3
  int from_ref_ = -1;  ///< read end of the reference's fd 4
  Piece ref_;
  Piece first_;
  std::vector<std::pair<Piece, Piece>> log_;
};

/// The reference's side: yield() reports the piece on fd 4 and blocks
/// until the next turn; when the benchmark closes fd 3 the process exits.
class ReferenceTurns final : public Turns {
 public:
  void yield(const Piece& mine) override;
};

/// The host-speed correction. `factor` is the reference's measured rate
/// over its nominal rate: 0.5 when the host ran it at half speed. Rates
/// are divided by it and host times multiplied by it, which expresses the
/// current build's figures at the reference's nominal speed.
struct PairedSpeed {
  double factor = 1;
  double rate(double measured) const { return measured / factor; }
  double seconds(double measured) const { return measured * factor; }
};

/// The reference's nominal rate on a workload (its throughput unit): the
/// median it measured on the machine the benchmark was defined on.
double reference_nominal_rate(const std::string& workload);

/// PairedSpeed from the reference's totals over a run.
PairedSpeed paired_speed(const std::string& workload, const Piece& reference);

}  // namespace perfbench
