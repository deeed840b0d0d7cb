#include "reference.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util.h"

namespace perfbench {

namespace {

/**
 * A pull reader for the JSON the model serializer writes. Numeric
 * arrays go straight into vectors, so a 1000-tree model never exists
 * as a document tree in memory.
 */
class JsonReader
{
  public:
    explicit JsonReader(std::string text) : text_(std::move(text)) {}

    template <typename OnKey>
    void
    object(OnKey on_key)
    {
        expect('{');
        if (consume('}'))
            return;
        do {
            std::string key = string();
            expect(':');
            on_key(key);
        } while (consume(','));
        expect('}');
    }

    template <typename OnItem>
    void
    array(OnItem on_item)
    {
        expect('[');
        if (consume(']'))
            return;
        do {
            on_item();
        } while (consume(','));
        expect(']');
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\')
                ++pos_;
            out.push_back(text_[pos_++]);
        }
        expect('"');
        return out;
    }

    double
    number()
    {
        skipSpace();
        const char *begin = text_.c_str() + pos_;
        char *end = nullptr;
        double value = std::strtod(begin, &end);
        if (end == begin)
            fail("number");
        pos_ += static_cast<size_t>(end - begin);
        return value;
    }

    bool
    boolean()
    {
        skipSpace();
        if (text_.compare(pos_, 4, "true") == 0) {
            pos_ += 4;
            return true;
        }
        if (text_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
            return false;
        }
        fail("boolean");
    }

    /** Skip one value of any type. */
    void
    skip()
    {
        skipSpace();
        char c = pos_ < text_.size() ? text_[pos_] : '\0';
        if (c == '{')
            object([this](const std::string &) { skip(); });
        else if (c == '[')
            array([this] { skip(); });
        else if (c == '"')
            string();
        else if (c == 't' || c == 'f')
            boolean();
        else if (text_.compare(pos_, 4, "null") == 0)
            pos_ += 4;
        else
            number();
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                text_[pos_] == '\t' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    expect(char c)
    {
        if (!consume(c))
            fail(std::string("'") + c + "'");
    }

    [[noreturn]] void
    fail(const std::string &wanted)
    {
        throw CheckFailure("reference reader: expected " + wanted +
                           " at byte " + std::to_string(pos_) +
                           " of the model file");
    }

    std::string text_;
    size_t pos_ = 0;
};

template <typename T>
std::vector<T>
readNumbers(JsonReader &reader)
{
    std::vector<T> values;
    reader.array([&] { values.push_back(static_cast<T>(reader.number())); });
    return values;
}

ReferenceModel::Tree
readTree(JsonReader &reader)
{
    ReferenceModel::Tree tree;
    reader.object([&](const std::string &key) {
        if (key == "root")
            tree.root = static_cast<int64_t>(reader.number());
        else if (key == "threshold")
            tree.threshold = readNumbers<float>(reader);
        else if (key == "feature")
            tree.feature = readNumbers<int64_t>(reader);
        else if (key == "left")
            tree.left = readNumbers<int64_t>(reader);
        else if (key == "right")
            tree.right = readNumbers<int64_t>(reader);
        else if (key == "default_left")
            reader.array([&] { tree.defaultLeft.push_back(reader.boolean()); });
        else
            reader.skip();
    });
    size_t n = tree.threshold.size();
    if (tree.feature.size() != n || tree.left.size() != n ||
        tree.right.size() != n ||
        (!tree.defaultLeft.empty() && tree.defaultLeft.size() != n))
        throw CheckFailure("reference reader: tree arrays differ in length");
    if (tree.defaultLeft.empty())
        tree.defaultLeft.assign(n, true);
    return tree;
}

/** Sum of the leaf values each class's trees reach, plus the base score. */
void
margins(const ReferenceModel &model, const float *row, double *out)
{
    for (int32_t k = 0; k < model.numClasses; ++k)
        out[k] = model.baseScore;
    for (size_t t = 0; t < model.trees.size(); ++t) {
        const ReferenceModel::Tree &tree = model.trees[t];
        int64_t node = tree.root;
        for (int steps = 0; tree.feature[node] >= 0; ++steps) {
            if (steps > 4096)
                throw CheckFailure("reference walk: tree " +
                                   std::to_string(t) + " has a cycle");
            float value = row[tree.feature[node]];
            bool left = std::isnan(value) ? tree.defaultLeft[node]
                                          : value < tree.threshold[node];
            node = left ? tree.left[node] : tree.right[node];
        }
        out[t % model.numClasses] += tree.threshold[node];
    }
}

[[noreturn]] void
mismatch(const std::string &what, int64_t row, const std::string &detail)
{
    throw CheckFailure(what + ": row " + std::to_string(row) + " " +
                       detail);
}

std::string
describe(int32_t k, float got, double want)
{
    char text[160];
    std::snprintf(text, sizeof(text),
                  "class %d is %.9g, the reference gives %.9g", k,
                  static_cast<double>(got), want);
    return text;
}

} // namespace

ReferenceModel
readReferenceModel(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw CheckFailure("reference reader: cannot open " + path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    JsonReader reader(buffer.str());

    ReferenceModel model;
    reader.object([&](const std::string &key) {
        if (key == "num_features")
            model.numFeatures = static_cast<int32_t>(reader.number());
        else if (key == "num_classes")
            model.numClasses = static_cast<int32_t>(reader.number());
        else if (key == "objective")
            model.objective = reader.string();
        else if (key == "base_score")
            model.baseScore = static_cast<float>(reader.number());
        else if (key == "trees")
            reader.array([&] { model.trees.push_back(readTree(reader)); });
        else
            reader.skip();
    });
    if (model.numClasses < 1 || model.trees.empty())
        throw CheckFailure("reference reader: no trees in " + path);
    return model;
}

void
checkAgainstReference(const ReferenceModel &model, const float *rows,
                      int64_t num_rows, const float *outputs,
                      const std::string &what)
{
    const int32_t classes = model.numClasses;
    std::vector<double> margin(static_cast<size_t>(classes));
    for (int64_t r = 0; r < num_rows; ++r) {
        margins(model, rows + r * model.numFeatures, margin.data());
        const float *got = outputs + r * classes;
        if (model.objective == "regression") {
            // Leaf values are multiples of 2^-10, so the float sum is
            // exact in any order and must match to the bit.
            for (int32_t k = 0; k < classes; ++k) {
                if (got[k] != static_cast<float>(margin[k]))
                    mismatch(what, r, describe(k, got[k], margin[k]));
            }
        } else if (model.objective == "binary_logistic") {
            for (int32_t k = 0; k < classes; ++k) {
                double want = 1.0 / (1.0 + std::exp(-margin[k]));
                if (!(std::fabs(got[k] - want) <= kProbabilityTolerance))
                    mismatch(what, r, describe(k, got[k], want));
            }
        } else if (model.objective == "multiclass_softmax") {
            double top = margin[0];
            for (double m : margin)
                top = std::max(top, m);
            double total = 0.0;
            for (double m : margin)
                total += std::exp(m - top);
            double sum = 0.0;
            int32_t argmax = 0;
            for (int32_t k = 0; k < classes; ++k) {
                double want = std::exp(margin[k] - top) / total;
                if (!(std::fabs(got[k] - want) <= kProbabilityTolerance))
                    mismatch(what, r, describe(k, got[k], want));
                sum += got[k];
                if (got[k] > got[argmax])
                    argmax = k;
            }
            if (!(std::fabs(sum - 1.0) <= kSoftmaxSumTolerance))
                mismatch(what, r,
                         "probabilities sum to " + std::to_string(sum));
            // Exact margins can tie; any class with the top margin is
            // a correct argmax.
            if (margin[static_cast<size_t>(argmax)] != top)
                mismatch(what, r,
                         "argmax is class " + std::to_string(argmax) +
                             ", not a class with the top reference margin");
        } else {
            throw CheckFailure("reference: unknown objective '" +
                               model.objective + "'");
        }
    }
}

} // namespace perfbench
