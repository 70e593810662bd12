// Quickstart: the library's learner families on one synthetic task.
//
// This walks the Section 2 survey in code: four of the basic learning
// ideas (nearest neighbor, model estimation, density estimation, Bayes
// rule) plus kernels, all against the same dataset, evaluated with the
// shared validation tooling.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/bayes"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/knn"
	"repro/internal/svm"
	"repro/internal/tree"
	"repro/internal/validate"
)

func main() {
	rng := rand.New(rand.NewSource(42))

	// A nonlinear two-class problem: XOR blobs.
	data := dataset.XOR(rng, 120, 0.3)
	train, test := data.StratifiedSplit(rng, 0.7)
	fmt.Printf("dataset: %d train / %d test samples, %d features\n\n",
		train.Len(), test.Len(), train.Dim())

	report := func(name string, pred []float64) {
		cm := validate.Confusion(pred, test.Y, 1)
		fmt.Printf("%-22s accuracy=%.3f  %s\n",
			name, validate.Accuracy(pred, test.Y), cm)
	}

	// Idea 1 (nearest neighbor): the label of a point follows the
	// majority of the points surrounding it.
	knnModel, err := knn.Fit(train, 5, nil)
	if err != nil {
		log.Fatal(err)
	}
	report("5-NN", dataset.PredictAll(test, knnModel.Classify))

	// Idea 2 (model estimation): a decision tree as the assumed model.
	cart, err := tree.Fit(train, tree.Config{MaxDepth: 6})
	if err != nil {
		log.Fatal(err)
	}
	report("CART tree", dataset.PredictAll(test, cart.Predict))

	forest, err := tree.FitForest(rng, train, tree.ForestConfig{NTrees: 40})
	if err != nil {
		log.Fatal(err)
	}
	report("random forest", dataset.PredictAll(test, forest.Predict))

	// Ideas 3+4 (density estimation / Bayes rule): quadratic discriminant
	// analysis implements the paper's Equation 1 decision function.
	qda, err := bayes.FitDiscriminant(train, true)
	if err != nil {
		log.Fatal(err)
	}
	report("QDA (paper Eq. 1)", dataset.PredictAll(test, qda.Predict))

	nb, err := bayes.FitNaiveBayes(train)
	if err != nil {
		log.Fatal(err)
	}
	report("naive Bayes", dataset.PredictAll(test, nb.Predict))

	// Kernel methods (Section 2.2): an RBF-kernel SVM handles XOR, where
	// any linear model fails.
	rbf, err := svm.FitSVC(train, kernel.RBF{Gamma: 1}, svm.SVCConfig{C: 5})
	if err != nil {
		log.Fatal(err)
	}
	report("SVC (RBF kernel)", dataset.PredictAll(test, rbf.Predict))

	linear, err := svm.FitSVC(train, kernel.Linear{}, svm.SVCConfig{C: 5})
	if err != nil {
		log.Fatal(err)
	}
	report("SVC (linear kernel)", dataset.PredictAll(test, linear.Predict))

	fmt.Println("\nnote how the linear SVC fails on XOR while the kernelized one")
	fmt.Println("succeeds — Figure 3's lesson, on a different dataset.")
}
