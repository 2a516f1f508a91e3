package ringmask_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/ringmask"
)

func TestRingmask(t *testing.T) {
	analysistest.Run(t, "testdata", ringmask.Analyzer, "a", "b", "c", "d", "e")
}
