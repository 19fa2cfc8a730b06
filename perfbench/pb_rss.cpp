// pb_rss — runs a command and records the command's own peak RSS.
//
//   pb_rss <rss-file> <program> [args...]
//
// Writes the child's ru_maxrss (KiB) to <rss-file> and exits with the
// child's exit code (128 + signal if it was killed). The kernel carries the
// RSS high-water mark of the image a process replaced at exec into its
// ru_maxrss, so a program started directly from the Python harness would
// report at least the harness's own RSS; started from this small process,
// it reports its own peak. The child dies with this process (PDEATHSIG).
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: pb_rss <rss-file> <program> [args...]\n");
    return 2;
  }
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("pb_rss: fork");
    return 2;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(2);
    execvp(argv[2], argv + 2);
    std::perror("pb_rss: exec");
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) {
    std::perror("pb_rss: wait4");
    return 2;
  }
  std::FILE* out = std::fopen(argv[1], "w");
  if (out == nullptr || std::fprintf(out, "%ld\n", usage.ru_maxrss) < 0 ||
      std::fclose(out) != 0) {
    std::perror("pb_rss: write");
    return 2;
  }
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return WEXITSTATUS(status);
}
