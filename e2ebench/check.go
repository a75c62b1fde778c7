package main

import (
	"fmt"
	"math"
	"slices"
)

// The answer checkers. Each returns "" for a correct answer and otherwise
// a one-line reason; an op whose answer fails counts in "failed".

// checkPredictions compares a request's predictions with the oracle's,
// position by position.
func checkPredictions(got, want []int) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d predictions, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("prediction %d is %d, oracle says %d", i, got[i], want[i])
		}
	}
	return ""
}

// checkEntry compares the zoo entry the planner chose with the one the
// request's accuracy floor requires.
func checkEntry(got, want string) string {
	if got != want {
		return fmt.Sprintf("planner chose %s, the floor requires %s", got, want)
	}
	return ""
}

// checkSelect compares a SELECT answer with the full-scan oracle's frames
// and requires every frame to carry a blob in the generator's ground truth.
func checkSelect(got, want []int, truth []bool) string {
	if !slices.Equal(got, want) {
		return fmt.Sprintf("select returned frames %v, full scan %v", got, want)
	}
	for _, f := range got {
		if f < 0 || f >= len(truth) || !truth[f] {
			return fmt.Sprintf("select frame %d has no blob in the generated clip", f)
		}
	}
	return ""
}

// checkEstimate requires an aggregate to equal the raw-stream estimate
// bit for bit: both run the same estimator over the same scores, samples
// and predictions.
func checkEstimate(got, want float64) string {
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Sprintf("estimate %v, raw-stream oracle %v", got, want)
	}
	return ""
}

// checkerSelfTest feeds the checkers known-wrong answers and fails unless
// each is counted as a failure (and the matching right answer is not).
func checkerSelfTest() error {
	preds := []int{3, 1, 4, 1, 5, 9, 2, 6}
	permuted := []int{1, 3, 4, 1, 5, 9, 2, 6}
	truth := make([]bool, 20)
	for _, f := range []int{2, 5, 11, 17} {
		truth[f] = true
	}
	cases := []struct {
		name  string
		fail  string
		wrong bool
	}{
		{"equal predictions", checkPredictions(preds, preds), false},
		{"permuted prediction", checkPredictions(permuted, preds), true},
		{"truncated predictions", checkPredictions(preds[:7], preds), true},
		{"required entry", checkEntry("resnet-a@64", "resnet-a@64"), false},
		{"other entry", checkEntry("resnet-a@128", "resnet-a@64"), true},
		{"equal select", checkSelect([]int{2, 5, 11}, []int{2, 5, 11}, truth), false},
		{"dropped select frame", checkSelect([]int{2, 11}, []int{2, 5, 11}, truth), true},
		{"select frame without blob", checkSelect([]int{2, 6}, []int{2, 6}, truth), true},
		{"equal estimate", checkEstimate(0.125, 0.125), false},
		{"changed estimate", checkEstimate(math.Nextafter(0.125, 1), 0.125), true},
	}
	for _, c := range cases {
		if (c.fail != "") != c.wrong {
			return fmt.Errorf("checker self-test %q: verdict %q", c.name, c.fail)
		}
	}
	return nil
}
