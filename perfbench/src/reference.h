/**
 * @file
 * The benchmark's independent reference: its own reader of the model
 * JSON file and its own tree walk, sharing no code with the program's
 * loader, compiler or walkers.
 */
#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Stated tolerance for logistic and softmax outputs (absolute). */
constexpr double kProbabilityTolerance = 1e-6;
/** Softmax rows must sum to 1 within this. */
constexpr double kSoftmaxSumTolerance = 1e-5;

/** A forest as the reference reads it from the model file. */
struct ReferenceModel
{
    struct Tree
    {
        int64_t root = 0;
        std::vector<float> threshold;
        std::vector<int64_t> feature;
        std::vector<int64_t> left;
        std::vector<int64_t> right;
        std::vector<bool> defaultLeft;
    };

    int32_t numFeatures = 0;
    int32_t numClasses = 1;
    std::string objective;
    double baseScore = 0.0;
    std::vector<Tree> trees;
};

/** Parse a model file written by model::saveForest. */
ReferenceModel readReferenceModel(const std::string &path);

/**
 * Check @p outputs (num_rows x numClasses) against the reference walk
 * over @p rows: regression margins bit for bit, logistic and softmax
 * probabilities within kProbabilityTolerance, softmax rows summing to
 * 1 and sharing the reference's argmax. Throws CheckFailure naming
 * the first bad row.
 */
void checkAgainstReference(const ReferenceModel &model, const float *rows,
                           int64_t num_rows, const float *outputs,
                           const std::string &what);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
