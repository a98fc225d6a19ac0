#include "host.h"

#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_NATIVE
#define PERFBENCH_NATIVE 0
#endif

namespace perfbench {

HostInfo host_info() {
  HostInfo h;
  h.nproc = std::thread::hardware_concurrency();
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (h.cpu_model.empty() && line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) h.cpu_model = line.substr(colon + 2);
    } else if (line.rfind("flags", 0) == 0) {
      std::istringstream words(line.substr(line.find(':') + 1));
      std::string w;
      while (words >> w) {
        h.avx512_vnni |= w == "avx512_vnni";
        h.avx512_bf16 |= w == "avx512_bf16";
        h.amx |= w == "amx_tile";
      }
      break;
    }
  }
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.native = PERFBENCH_NATIVE != 0;
  return h;
}

std::string host_json(const HostInfo& h, const std::string& workload, uint64_t seed) {
  std::string model;
  for (char c : h.cpu_model) {
    if (c == '"' || c == '\\') model += '\\';
    model += c;
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"host\":{\"nproc\":%u,\"cpu_model\":\"%s\",\"avx512_vnni\":%s,"
                "\"avx512_bf16\":%s,\"amx\":%s,\"build_type\":\"%s\",\"deepfusion_native\":%s},"
                "\"workload\":\"%s\",\"seed\":%llu}",
                h.nproc, model.c_str(), h.avx512_vnni ? "true" : "false",
                h.avx512_bf16 ? "true" : "false", h.amx ? "true" : "false",
                h.build_type.c_str(), h.native ? "true" : "false", workload.c_str(),
                static_cast<unsigned long long>(seed));
  return buf;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

bool reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
