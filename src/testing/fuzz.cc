#include "testing/fuzz.h"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>

#include "base/check.h"
#include "testing/corpus.h"
#include "testing/shrink.h"

namespace mondet {
namespace testing {

namespace {

/// The last `max_bytes` of `f`, starting at a line start when cut.
std::string Tail(std::FILE* f, long max_bytes) {
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  const long from = size > max_bytes ? size - max_bytes : 0;
  std::fseek(f, from, SEEK_SET);
  std::string out(static_cast<size_t>(size - from), '\0');
  out.resize(std::fread(out.data(), 1, out.size(), f));
  if (from > 0) out.erase(0, out.find('\n') + 1);
  return out;
}

/// `inner` with every Check run in a child, so each ShrinkCase step is
/// isolated too.
class InChild : public Oracle {
 public:
  explicit InChild(const Oracle& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  GenProfile Profile() const override { return inner_.Profile(); }
  FuzzCase Generate(unsigned seed) const override {
    return inner_.Generate(seed);
  }
  OracleOutcome Check(const FuzzCase& c) const override {
    return CheckInChild(inner_, c);
  }

 private:
  const Oracle& inner_;
};

}  // namespace

OracleOutcome CheckInChild(const Oracle& oracle, const FuzzCase& c) {
  // The outcome comes back over the pipe as 'P' or 'F' plus the message;
  // the child's stderr goes to an unlinked temporary file, read only when
  // the child dies.
  int fds[2];
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> err(std::tmpfile(),
                                                            &std::fclose);
  MONDET_CHECK(err != nullptr && pipe(fds) == 0 &&
               "CheckInChild: no pipe or stderr file");
  std::fflush(nullptr);  // the child must not inherit unwritten output
  const pid_t pid = fork();
  MONDET_CHECK(pid >= 0 && "CheckInChild: fork failed");
  if (pid == 0) {
    close(fds[0]);
    dup2(fileno(err.get()), STDERR_FILENO);
    const OracleOutcome o = oracle.Check(c);
    const std::string msg = (o.ok ? "P" : "F") + o.message;
    for (size_t done = 0; done < msg.size();) {
      const ssize_t n = write(fds[1], msg.data() + done, msg.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) _exit(1);
      done += static_cast<size_t>(n);
    }
    _exit(0);  // no destructors or exit handlers: the parent owns those
  }
  close(fds[1]);
  std::string got;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      got.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  OracleOutcome out;
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0 && !got.empty()) {
    out = {got[0] == 'P', got.substr(1)};
  } else {
    const std::string how =
        WIFSIGNALED(status)
            ? "died on signal " + std::to_string(WTERMSIG(status)) + " (" +
                  strsignal(WTERMSIG(status)) + ")"
            : "exited with status " + std::to_string(WEXITSTATUS(status)) +
                  " without an outcome";
    std::string tail = Tail(err.get(), 2048);
    if (!tail.empty() && tail.back() != '\n') tail += '\n';
    out = {false, "check " + how + "; the end of its stderr:\n" + tail +
                      "--- case ---\n" + DescribeCase(c)};
  }
  return out;
}

bool RunCase(const Oracle& oracle, const FuzzCase& c, bool shrink,
             const std::string& out_dir) {
  OracleOutcome outcome = CheckInChild(oracle, c);
  if (outcome.ok) return true;
  std::fprintf(stderr, "FAIL %s seed %u\n%s\n", oracle.name().c_str(), c.seed,
               outcome.message.c_str());
  FuzzCase repro = c;
  if (shrink) {
    ShrinkResult shrunk = ShrinkCase(InChild(oracle), c);
    std::fprintf(stderr, "shrunk with %zu checks (%s)\n", shrunk.checks,
                 shrunk.changed ? "reduced" : "already minimal");
    repro = shrunk.best;
  }
  const std::string path = out_dir + "/" + repro.oracle + "-seed" +
                           std::to_string(repro.seed) + ".repro";
  std::string error;
  if (SaveCaseFile(repro, path, &error)) {
    std::fprintf(stderr, "repro written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "could not write repro: %s\n", error.c_str());
  }
  return false;
}

}  // namespace testing
}  // namespace mondet
