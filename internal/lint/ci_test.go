package lint_test

import (
	"os"
	"strings"
	"testing"
)

// TestCIWorkflowRunLinesParse guards .github/workflows/ci.yml against the
// one way it has stopped being YAML before: a `run:` value that opens
// with a double quote is a quoted scalar, and anything after the closing
// quote (`run: "$RUNNER_TEMP/tool" ./...`) is a syntax error
// that fails the whole workflow before a single job starts — silently, as
// far as the repository's own tests could tell. A command that starts
// with a quoted word is written inside single quotes.
func TestCIWorkflowRunLinesParse(t *testing.T) {
	data, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		value, ok := strings.CutPrefix(strings.TrimSpace(line), "run:")
		if !ok {
			continue
		}
		value = strings.TrimSpace(value)
		if strings.HasPrefix(value, `"`) && !(len(value) > 1 && strings.HasSuffix(value, `"`)) {
			t.Errorf("ci.yml:%d: run: value opens a double-quoted scalar and goes on after it closes: %s", i+1, value)
		}
	}
}
