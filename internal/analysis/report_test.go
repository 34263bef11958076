package analysis

import (
	"bytes"
	"go/token"
	"strings"
	"testing"
)

func sampleDiags() []Diagnostic {
	// Deliberately unsorted: the report must impose its own order.
	return []Diagnostic{
		{
			Pos:      token.Position{Filename: "/mod/b/b.go", Line: 9, Column: 2},
			Analyzer: "lockcheck",
			Message:  "b finding with 100% weird\ncharacters",
		},
		{
			Pos:      token.Position{Filename: "/mod/a/a.go", Line: 3, Column: 1},
			Analyzer: "keytaint",
			Message:  "a finding",
			Fixes: []SuggestedFix{{
				Message: "delete it",
				Edits:   []TextEdit{{File: "/mod/a/a.go", Offset: 10, End: 20}},
			}},
		},
		{
			Pos:      token.Position{Filename: "/elsewhere/c.go", Line: 1, Column: 1},
			Analyzer: "keytaint",
			Message:  "outside the base dir",
		},
	}
}

func TestReportRelativizesAndSorts(t *testing.T) {
	r := NewReport(sampleDiags(), "/mod")
	if len(r.Diagnostics) != 3 {
		t.Fatalf("got %d diagnostics, want 3", len(r.Diagnostics))
	}
	gotFiles := []string{r.Diagnostics[0].File, r.Diagnostics[1].File, r.Diagnostics[2].File}
	wantFiles := []string{"/elsewhere/c.go", "a/a.go", "b/b.go"}
	for i := range wantFiles {
		if gotFiles[i] != wantFiles[i] {
			t.Errorf("diagnostic %d file = %q, want %q", i, gotFiles[i], wantFiles[i])
		}
	}
	if r.Diagnostics[1].Fixes[0].Edits[0].File != "a/a.go" {
		t.Errorf("fix edit path not relativized: %q", r.Diagnostics[1].Fixes[0].Edits[0].File)
	}
}

func TestReportJSONByteDeterministic(t *testing.T) {
	a := NewReport(sampleDiags(), "/mod").EncodeJSON()
	b := NewReport(sampleDiags(), "/mod").EncodeJSON()
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same diagnostics differ")
	}
	if a[len(a)-1] != '\n' {
		t.Error("encoding lacks a trailing newline")
	}
}

func TestGitHubAnnotationsEscapeMessages(t *testing.T) {
	r := NewReport(sampleDiags(), "/mod")
	var buf bytes.Buffer
	r.WriteGitHubAnnotations(&buf)
	out := buf.String()
	if got := strings.Count(out, "::error "); got != 3 {
		t.Fatalf("got %d annotations, want 3:\n%s", got, out)
	}
	if !strings.Contains(out, "100%25 weird%0Acharacters") {
		t.Errorf("workflow-command escaping missing:\n%s", out)
	}
	if !strings.Contains(out, "file=b/b.go,line=9,col=2,title=bpvet/lockcheck::") {
		t.Errorf("annotation location fields malformed:\n%s", out)
	}
}
