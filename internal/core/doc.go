package core

import (
	"encoding/json"
	"fmt"
	"math"

	"uvmasim/internal/cuda"
)

// This file is the document model of the figures. Each figure is one
// FigureDoc whose Data is a Table: encoding/json encodes it for -json
// and POST /v1/experiments, and its Text method formats the same
// values as the CLI's text table. Every statistic both encodings show
// is computed once, where the document is built, so the two cannot
// disagree. Struct fields marshal in declaration order and
// setups/sizes marshal as their paper names (see cuda.Setup.MarshalJSON),
// so both encodings are deterministic: byte-identical for identical
// study values, hence byte-identical at any executor Parallelism.

// Table is a figure's payload: the fields encoding/json marshals,
// plus Text, which formats them as a text table.
type Table interface {
	Text() string
}

// FigureDoc is one artifact: the figure's name, its table, and a note
// that the text encoding prints above the table (a dropped size class,
// a skipped figure) and the JSON encoding leaves out.
type FigureDoc struct {
	Figure string `json:"figure"`
	Data   Table  `json:"data"`
	Note   string `json:"-"`
}

// Text formats the document as the CLI's text mode prints it.
func (d FigureDoc) Text() string { return d.Note + d.Data.Text() }

// RenderJSON serializes a FigureDoc as indented JSON with a trailing
// newline, the form the -json CLI mode prints.
func RenderJSON(doc FigureDoc) (string, error) {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b) + "\n", nil
}

// figureTitles heads the text tables of the figures whose study type
// another figure shares: the breakdown studies and the sweeps.
var figureTitles = map[string]string{
	"fig7":  "Figure 7",
	"fig8":  "Figure 8",
	"micro": "Microbenchmarks (§4.1.1)",
	"apps":  "Real-world applications (§4.1.2)",
	"fig11": "Figure 11",
	"fig12": "Figure 12",
	"fig13": "Figure 13",
}

// spread is a statistic that can be undefined: a dispersion (std, CI,
// CV) over fewer than two samples, or a mean saving when no workload
// has the component to save. Undefined is NaN, which encoding/json
// refuses, so it encodes as null then, and as the plain float64
// encoding otherwise; the text tables print it as a float.
type spread float64

func (v spread) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(v)) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(v))
}

// roi is a breakdown's region-of-interest time: the total minus the
// fixed process overhead, as the paper's measurement excludes it.
func roi(b cuda.Breakdown) float64 { return b.Total - b.Overhead }

// normalizedTotals returns each breakdown's ROI time over base's, the
// quantity the figures plot, or zeros when base has no ROI time.
func normalizedTotals(bds []cuda.Breakdown, base cuda.Breakdown) []float64 {
	out := make([]float64, len(bds))
	den := roi(base)
	if den <= 0 {
		return out
	}
	for i, b := range bds {
		out[i] = roi(b) / den
	}
	return out
}

// ms formats nanoseconds as milliseconds.
func ms(ns float64) string { return fmt.Sprintf("%9.2f", ns/1e6) }
