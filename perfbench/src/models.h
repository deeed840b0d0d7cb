/**
 * @file
 * The benchmark's model cases: shapes, objectives and pinned
 * schedules, plus the seeded generation of model files and row pools.
 */
#ifndef PERFBENCH_MODELS_H
#define PERFBENCH_MODELS_H

#include <cstdint>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "hir/schedule.h"
#include "model/forest.h"

namespace perfbench {

/** Rows per batch call on the batch workloads. */
constexpr int64_t kBatchRows = 1024;

/** One model shape with the schedule it is always compiled with. */
struct ModelCase
{
    std::string name;
    treebeard::data::SyntheticModelSpec spec;
    treebeard::model::Objective objective =
        treebeard::model::Objective::kRegression;
    int32_t numClasses = 1;
    treebeard::hir::Schedule schedule;
};

/** higgs, airline-ohe and letter, seeded from @p seed. */
std::vector<ModelCase> batchCases(uint64_t seed);

/** The higgs-shaped model behind the serve workloads. */
ModelCase serveCase(uint64_t seed);

/** The cases workload @p workload uses; throws on an unknown name. */
std::vector<ModelCase> casesFor(const std::string &workload,
                                uint64_t seed);

/** Path of @p model_case 's model file under @p work_dir. */
std::string modelPath(const std::string &work_dir,
                      const ModelCase &model_case);

/**
 * Synthesize the case's forest, round every leaf value to a multiple
 * of 2^-10 (so tree sums are exact in any order), and save it.
 */
void writeModel(const ModelCase &model_case, const std::string &path);

/** @p num_rows rows drawn from the case's feature distribution. */
std::vector<float> makeRows(const ModelCase &model_case, int64_t num_rows);

} // namespace perfbench

#endif // PERFBENCH_MODELS_H
