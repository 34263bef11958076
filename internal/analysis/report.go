package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// Machine-readable diagnostic output. The JSON report is the canonical
// interchange form — versioned, sorted, byte-deterministic — and the
// GitHub-annotation emitter is a projection of it.

// ReportVersion is the JSON report schema version, bumped on any
// incompatible field change.
const ReportVersion = 1

// Report is the serialized form of one bpvet run.
type Report struct {
	// Version is the report schema version (ReportVersion).
	Version int `json:"version"`
	// Tool identifies the producer ("bpvet").
	Tool string `json:"tool"`
	// Diagnostics are the findings, sorted by file, line, column,
	// analyzer, message.
	Diagnostics []ReportDiagnostic `json:"diagnostics"`
}

// ReportDiagnostic is one finding in a report.
type ReportDiagnostic struct {
	File     string      `json:"file"`
	Line     int         `json:"line"`
	Column   int         `json:"column"`
	Analyzer string      `json:"analyzer"`
	Message  string      `json:"message"`
	Fixes    []ReportFix `json:"fixes,omitempty"`
}

// ReportFix is one suggested fix in a report.
type ReportFix struct {
	Message string       `json:"message"`
	Edits   []ReportEdit `json:"edits"`
}

// ReportEdit is one text edit in a report. Offsets are byte offsets
// into the named file.
type ReportEdit struct {
	File    string `json:"file"`
	Offset  int    `json:"offset"`
	End     int    `json:"end"`
	NewText string `json:"newText"`
}

// NewReport builds a report from diagnostics, relativizing file paths
// against baseDir (usually the module root) so the output is
// machine-independent: the same tree produces the same bytes regardless
// of where it is checked out.
func NewReport(diags []Diagnostic, baseDir string) *Report {
	rel := func(path string) string {
		if baseDir == "" {
			return path
		}
		if r, err := filepath.Rel(baseDir, path); err == nil && !strings.HasPrefix(r, "..") {
			return filepath.ToSlash(r)
		}
		return path
	}
	r := &Report{Version: ReportVersion, Tool: "bpvet", Diagnostics: []ReportDiagnostic{}}
	for _, d := range diags {
		rd := ReportDiagnostic{
			File:     rel(d.Pos.Filename),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		}
		for _, f := range d.Fixes {
			rf := ReportFix{Message: f.Message, Edits: []ReportEdit{}}
			for _, e := range f.Edits {
				rf.Edits = append(rf.Edits, ReportEdit{
					File: rel(e.File), Offset: e.Offset, End: e.End, NewText: e.NewText,
				})
			}
			rd.Fixes = append(rd.Fixes, rf)
		}
		r.Diagnostics = append(r.Diagnostics, rd)
	}
	sort.Slice(r.Diagnostics, func(i, j int) bool {
		a, b := r.Diagnostics[i], r.Diagnostics[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return r
}

// EncodeJSON renders the report as indented JSON with a trailing
// newline. The encoding is byte-deterministic: struct field order is
// fixed and diagnostics are sorted.
func (r *Report) EncodeJSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		// A Report contains only marshalable types; this is unreachable.
		panic(err)
	}
	return append(b, '\n')
}

// WriteGitHubAnnotations emits one ::error workflow command per
// diagnostic, which GitHub Actions renders as an inline annotation on
// the PR diff. Message text is escaped per the workflow-command rules.
func (r *Report) WriteGitHubAnnotations(w io.Writer) {
	esc := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	for _, d := range r.Diagnostics {
		fmt.Fprintf(w, "::error file=%s,line=%d,col=%d,title=bpvet/%s::%s\n",
			d.File, d.Line, d.Column, d.Analyzer, esc.Replace(d.Message))
	}
}
