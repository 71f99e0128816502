#include "engine/export.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "optsc/defaults.hpp"
#include "optsc/link_budget.hpp"
#include "stochastic/functions.hpp"

namespace oscs::engine {
namespace {

namespace sc = oscs::stochastic;

BatchSummary small_summary() {
  const optsc::OpticalScCircuit circuit(optsc::paper_defaults(3, 1.0));
  const BatchRunner runner(circuit);
  BatchRequest request;
  request.polynomials.push_back(sc::paper_f2_bernstein());
  request.xs = {0.25, 0.75};
  request.stream_lengths = {64, 128};
  request.repeats = 2;
  request.seed = 11;
  return runner.run_nd(request, std::size_t{1});
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(BatchCsvTest, OneRowPerCellWithFullHeader) {
  const BatchSummary summary = small_summary();
  const oscs::CsvTable table = batch_csv(summary);
  EXPECT_EQ(table.rows(), summary.cells.size());
  ASSERT_EQ(table.header().size(), 11u);
  EXPECT_EQ(table.header().front(), "poly_index");
  EXPECT_EQ(table.header().back(), "flip_rate_mean");
  // Spot-check a cell against the table contents.
  EXPECT_EQ(table.at(0, 0), "0");
  EXPECT_EQ(table.at(0, 2), "64");
  EXPECT_EQ(table.at(1, 2), "128");
}

TEST(BatchJsonTest, ContainsAggregatesAndEveryCell) {
  const BatchSummary summary = small_summary();
  const std::string json = batch_json(summary);
  EXPECT_NE(json.find("\"tasks\": " + std::to_string(summary.tasks)),
            std::string::npos);
  EXPECT_NE(json.find("\"optical_mae\""), std::string::npos);
  EXPECT_NE(json.find("\"worst_cell_error\""), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"poly_index\""), summary.cells.size());
  EXPECT_EQ(count_occurrences(json, "\"optical_ci\""), summary.cells.size());
  // Balanced braces - cheap structural sanity without a JSON parser.
  EXPECT_EQ(count_occurrences(json, "{"), count_occurrences(json, "}"));
}

TEST(BatchExportTest, WritesFilesCreatingParentDirectories) {
  const BatchSummary summary = small_summary();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "oscs_export_test";
  std::filesystem::remove_all(dir);
  const std::string csv_path = (dir / "nested" / "cells.csv").string();
  const std::string json_path = (dir / "nested" / "cells.json").string();
  write_batch_csv(summary, csv_path);
  write_batch_json(summary, json_path);
  ASSERT_TRUE(std::filesystem::exists(csv_path));
  ASSERT_TRUE(std::filesystem::exists(json_path));

  std::ifstream csv_in(csv_path);
  std::string first_line;
  std::getline(csv_in, first_line);
  EXPECT_NE(first_line.find("poly_index,x,stream_length"), std::string::npos);

  std::ifstream json_in(json_path);
  std::stringstream buffer;
  buffer << json_in.rdbuf();
  EXPECT_EQ(buffer.str(), batch_json(summary));
  std::filesystem::remove_all(dir);
}

TEST(BatchRunnerSharedKernel, MatchesCircuitConstructedRunner) {
  const optsc::OpticalScCircuit circuit(optsc::paper_defaults(3, 1.0));
  const BatchRunner from_circuit(circuit);
  const BatchRunner from_kernel(std::make_shared<const PackedKernel>(circuit),
                                optsc::design_operating_point(circuit));
  BatchRequest request;
  request.polynomials.push_back(sc::paper_f2_bernstein());
  request.xs = {0.5};
  request.stream_lengths = {256};
  request.repeats = 3;
  request.seed = 21;
  const BatchSummary a = from_circuit.run_nd(request, std::size_t{1});
  const BatchSummary b = from_kernel.run_nd(request, std::size_t{2});
  ASSERT_EQ(a.cells.size(), b.cells.size());
  EXPECT_DOUBLE_EQ(a.cells[0].optical_mean, b.cells[0].optical_mean);
  EXPECT_DOUBLE_EQ(a.optical_mae, b.optical_mae);
  EXPECT_THROW(BatchRunner(std::shared_ptr<const PackedKernel>{},
                           oscs::OperatingPoint{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace oscs::engine
