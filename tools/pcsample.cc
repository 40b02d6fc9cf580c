// PC sampler, loaded into a program with LD_PRELOAD. It records where the
// process spends wall time and writes the raw samples at exit; the report
// script (tools/pcprof.py) resolves them to functions and charges each one
// to a row of docs/architecture.md's layer map.
//
//   PCSAMPLE_OUT=/tmp/prof LD_PRELOAD=build/libpcsample.so build/hacksim_run
//
// writes /tmp/prof.pcs (a header line, then one hexadecimal PC per line) and
// /tmp/prof.maps (a copy of /proc/self/maps, to map the PCs to files).
// Without PCSAMPLE_OUT the library does nothing. The buffer holds 4M
// samples (about 7 minutes; later samples are counted as dropped); it is
// reserved up front and its pages are touched only as samples arrive.
//
// A POSIX timer on CLOCK_MONOTONIC raises SIGPROF every 100 us (10 kHz);
// the handler stores the interrupted PC. setitimer(ITIMER_PROF) would tick
// only at the kernel's scheduler rate. The signal goes to any thread of the
// process, so profile single-threaded runs. Nothing is written if the program ends
// without running its atexit handlers (a crash or _exit). The sampler
// unsets PCSAMPLE_OUT, so child processes do not overwrite the files.
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

constexpr long kPeriodUs = 100;
constexpr size_t kCapacity = size_t{1} << 22;

uintptr_t* g_pcs = nullptr;
std::atomic<size_t> g_taken{0};
timer_t g_timer{};
std::string* g_out = nullptr;

uintptr_t InterruptedPc(const void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<uintptr_t>(uc->uc_mcontext.pc);
#else
#error "pcsample: unsupported architecture"
#endif
}

void OnProf(int, siginfo_t*, void* context) {
  size_t i = g_taken.fetch_add(1, std::memory_order_relaxed);
  if (i < kCapacity) {
    g_pcs[i] = InterruptedPc(context);
  }
}

void CopyFile(const char* from, const std::string& to) {
  int in = open(from, O_RDONLY);
  FILE* out = fopen(to.c_str(), "w");
  if (in >= 0 && out != nullptr) {
    char buf[8192];
    ssize_t got;
    while ((got = read(in, buf, sizeof buf)) > 0) {
      fwrite(buf, 1, static_cast<size_t>(got), out);
    }
  }
  if (in >= 0) {
    close(in);
  }
  if (out != nullptr) {
    fclose(out);
  }
}

void WriteProfile() {
  timer_delete(g_timer);
  size_t taken = g_taken.load();
  size_t kept = std::min(taken, kCapacity);
  char exe[4096];
  ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  exe[len > 0 ? len : 0] = '\0';
  FILE* out = fopen((*g_out + ".pcs").c_str(), "w");
  if (out == nullptr) {
    perror("pcsample: cannot write samples");
    return;
  }
  fprintf(out, "# pcsample period_us=%ld samples=%zu dropped=%zu exe=%s\n",
          kPeriodUs, kept, taken - kept, exe);
  for (size_t i = 0; i < kept; ++i) {
    fprintf(out, "%lx\n", static_cast<unsigned long>(g_pcs[i]));
  }
  fclose(out);
  CopyFile("/proc/self/maps", *g_out + ".maps");
}

__attribute__((constructor)) void StartSampling() {
  const char* out = getenv("PCSAMPLE_OUT");
  if (out == nullptr || *out == '\0') {
    return;
  }
  g_out = new std::string(out);
  unsetenv("PCSAMPLE_OUT");
  void* buf = mmap(nullptr, kCapacity * sizeof(uintptr_t),
                   PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (buf == MAP_FAILED) {
    perror("pcsample: cannot reserve the sample buffer");
    return;
  }
  g_pcs = static_cast<uintptr_t*>(buf);

  struct sigaction action = {};
  action.sa_sigaction = OnProf;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigevent event = {};
  event.sigev_notify = SIGEV_SIGNAL;
  event.sigev_signo = SIGPROF;
  itimerspec period = {};
  period.it_interval.tv_nsec = kPeriodUs * 1000;
  period.it_value = period.it_interval;
  if (sigaction(SIGPROF, &action, nullptr) != 0 ||
      timer_create(CLOCK_MONOTONIC, &event, &g_timer) != 0 ||
      timer_settime(g_timer, 0, &period, nullptr) != 0) {
    perror("pcsample: cannot start the sampling timer");
    return;
  }
  atexit(WriteProfile);
}

}  // namespace
