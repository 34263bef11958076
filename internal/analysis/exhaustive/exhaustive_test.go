package exhaustive_test

import (
	"testing"

	"xorbp/internal/analysis/analysistest"
	"xorbp/internal/analysis/exhaustive"
)

// TestKindSwitches pins the Kind-switch rule: a complete switch is
// silent, a switch missing a kind or a default arm is diagnosed, and
// switches on other Spec fields are not anchored.
func TestKindSwitches(t *testing.T) {
	analysistest.Run(t, "testdata/src/wire", "xorbp/internal/fake/wire", exhaustive.Analyzer)
}

// TestRegistry pins the ByName registry rule: an unregistered
// implementation and a case-key/return-type mismatch are diagnosed;
// correctly registered codecs are silent.
func TestRegistry(t *testing.T) {
	analysistest.Run(t, "testdata/src/core", "xorbp/internal/core", exhaustive.Analyzer)
}

// TestPredictorLists pins the three-way predictor list consistency
// checks on a deliberately drifted testdata package.
func TestPredictorLists(t *testing.T) {
	analysistest.Run(t, "testdata/src/experiment", "xorbp/internal/experiment", exhaustive.Analyzer)
}

// TestMissingAnchors pins that refactoring the anchor functions away
// is itself a diagnostic, not a silent pass.
func TestMissingAnchors(t *testing.T) {
	analysistest.Run(t, "testdata/src/anchorless", "xorbp/internal/experiment", exhaustive.Analyzer)
}
