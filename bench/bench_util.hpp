// Shared helpers for the per-figure bench binaries: consistent headers,
// table printing, and CSV output under results/.
#pragma once

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "common/table.hpp"
#include "telemetry/exporters.hpp"

namespace parva::bench {

/// Prints the figure banner.
inline void banner(const std::string& figure, const std::string& caption) {
  std::cout << "==============================================================\n"
            << figure << " — " << caption << "\n"
            << "==============================================================\n";
}

/// Prints a table and mirrors it to results/<stem>.csv. A CSV that cannot
/// be written ends the bench with exit 1, naming the path: a bench that
/// wrote nothing must not look like one that reproduced its results.
inline void emit(const TextTable& table, const std::string& stem) {
  table.print(std::cout);
  const std::string path = "results/" + stem + ".csv";
  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  const Status written = telemetry::write_text_file(path, table.to_csv());
  if (!written.ok()) {
    std::cerr << "error: " << written.to_string() << "\n";
    std::exit(1);
  }
  std::cout << "\n[csv: " << path << "]\n\n";
}

}  // namespace parva::bench
