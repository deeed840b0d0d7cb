#include "models.h"

#include <cmath>
#include <stdexcept>

#include "model/serialization.h"

namespace perfbench {

namespace {

using treebeard::hir::MemoryLayout;
using treebeard::hir::Schedule;
using treebeard::hir::TraversalKind;
using treebeard::model::Objective;

/** Distinct, seed-dependent generator seed for each case. */
uint64_t
caseSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt * 0xbf58476d1ce4e5b9ull;
    z ^= z >> 31;
    return z;
}

Schedule
nodeParallel(MemoryLayout layout)
{
    Schedule schedule;
    schedule.tileSize = 8;
    schedule.interleaveFactor = 8;
    schedule.layout = layout;
    return schedule;
}

Schedule
rowParallelTile1()
{
    Schedule schedule;
    schedule.tileSize = 1;
    schedule.traversal = TraversalKind::kRowParallel;
    return schedule;
}

ModelCase
makeCase(const std::string &name, uint64_t seed, uint64_t salt,
         Objective objective, int32_t num_classes, Schedule schedule)
{
    ModelCase model_case;
    model_case.name = name;
    model_case.spec = treebeard::data::benchmarkSpecByName(name);
    model_case.spec.seed = caseSeed(seed, salt);
    model_case.objective = objective;
    model_case.numClasses = num_classes;
    model_case.schedule = schedule;
    return model_case;
}

} // namespace

std::vector<ModelCase>
batchCases(uint64_t seed)
{
    return {
        makeCase("higgs", seed, 1, Objective::kBinaryLogistic, 1,
                 nodeParallel(MemoryLayout::kSparse)),
        makeCase("airline-ohe", seed, 2, Objective::kRegression, 1,
                 rowParallelTile1()),
        makeCase("letter", seed, 3, Objective::kMulticlassSoftmax, 26,
                 nodeParallel(MemoryLayout::kPacked)),
    };
}

ModelCase
serveCase(uint64_t seed)
{
    return makeCase("higgs", seed, 4, Objective::kBinaryLogistic, 1,
                    rowParallelTile1());
}

std::vector<ModelCase>
casesFor(const std::string &workload, uint64_t seed)
{
    if (workload == "batch-kernel" || workload == "batch-jit")
        return batchCases(seed);
    if (workload == "serve-trickle" || workload == "serve-burst")
        return {serveCase(seed)};
    throw std::invalid_argument("unknown workload '" + workload + "'");
}

std::string
modelPath(const std::string &work_dir, const ModelCase &model_case)
{
    return work_dir + "/" + model_case.name + ".json";
}

void
writeModel(const ModelCase &model_case, const std::string &path)
{
    treebeard::model::Forest forest =
        treebeard::data::synthesizeForest(model_case.spec);
    forest.setObjective(model_case.objective);
    forest.setNumClasses(model_case.numClasses);
    for (int64_t t = 0; t < forest.numTrees(); ++t) {
        treebeard::model::DecisionTree &tree = forest.mutableTree(t);
        for (treebeard::model::NodeIndex i = 0; i < tree.numNodes(); ++i) {
            treebeard::model::Node &node = tree.mutableNode(i);
            if (node.isLeaf())
                node.threshold = std::round(node.threshold * 1024.0f) /
                                 1024.0f;
        }
    }
    treebeard::model::saveForest(forest, path);
}

std::vector<float>
makeRows(const ModelCase &model_case, int64_t num_rows)
{
    treebeard::data::Dataset rows = treebeard::data::generateFeatures(
        model_case.spec, num_rows, /*seed_offset=*/7);
    return std::vector<float>(rows.rows(),
                              rows.rows() + num_rows * rows.numFeatures());
}

} // namespace perfbench
