package obs

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func testSpans() []Span {
	return []Span{
		{Name: "conv1", Cat: "CONV/FC", Dir: "fwd", Dur: 6000},
		{Name: "conv1", Cat: "CONV/FC", Dir: "bwd", Dur: 10000},
		{Name: "bn1", Cat: "BN", Dir: "fwd", Dur: 2000},
		{Name: "bn1", Cat: "BN", Dir: "bwd", Dur: 1000},
		{Name: "relu1", Cat: "ReLU", Dir: "fwd", Dur: 1000},
		{Name: "forward", Cat: "pass", Dir: "fwd", Dur: 9000}, // envelope, filtered out
	}
}

func TestBreakdownOfAggregatesAndFilters(t *testing.T) {
	b := BreakdownOf(testSpans(), func(cat string) bool { return cat != "pass" })
	if b.TotalNs != 20000 || b.FwdNs != 9000 || b.BwdNs != 11000 {
		t.Fatalf("totals = %d fwd %d bwd %d", b.TotalNs, b.FwdNs, b.BwdNs)
	}
	if len(b.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(b.Rows))
	}
	// Sorted by descending total: CONV/FC 16000, BN 3000, ReLU 1000.
	if b.Rows[0].Cat != "CONV/FC" || b.Rows[1].Cat != "BN" || b.Rows[2].Cat != "ReLU" {
		t.Fatalf("row order = %v %v %v", b.Rows[0].Cat, b.Rows[1].Cat, b.Rows[2].Cat)
	}
	if b.Rows[0].FwdNs != 6000 || b.Rows[0].BwdNs != 10000 || b.Rows[0].TotalNs != 16000 {
		t.Fatalf("CONV row = %+v", b.Rows[0])
	}
	if math.Abs(b.Rows[0].Share-0.8) > 1e-12 {
		t.Fatalf("CONV share = %f, want 0.8", b.Rows[0].Share)
	}
	if math.Abs(b.ShareOf("BN")-0.15) > 1e-12 {
		t.Fatalf("BN share = %f, want 0.15", b.ShareOf("BN"))
	}
	if b.ShareOf("missing") != 0 {
		t.Fatal("missing category should read share 0")
	}
}

func TestBreakdownNilFilterTakesAll(t *testing.T) {
	b := BreakdownOf(testSpans(), nil)
	if b.TotalNs != 29000 {
		t.Fatalf("total = %d, want 29000 (pass envelope included)", b.TotalNs)
	}
}

func TestBreakdownDeterministicTiebreak(t *testing.T) {
	spans := []Span{
		{Cat: "BN", Dir: "fwd", Dur: 5},
		{Cat: "ReLU", Dir: "fwd", Dur: 5},
		{Cat: "CONV/FC", Dir: "fwd", Dur: 5},
	}
	b := BreakdownOf(spans, nil)
	got := []string{b.Rows[0].Cat, b.Rows[1].Cat, b.Rows[2].Cat}
	want := []string{"BN", "CONV/FC", "ReLU"} // equal totals break by name
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tiebreak order = %v, want %v", got, want)
	}
}

func TestEmptyBreakdown(t *testing.T) {
	b := BreakdownOf(nil, nil)
	if b.TotalNs != 0 || len(b.Rows) != 0 {
		t.Fatalf("empty breakdown = %+v", b)
	}
	var sb strings.Builder
	if err := b.WriteTable(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "total") {
		t.Fatal("empty table missing total row")
	}
}

func TestWriteTableColumns(t *testing.T) {
	b := BreakdownOf(testSpans(), func(cat string) bool { return cat != "pass" })
	var plain strings.Builder
	if err := b.WriteTable(&plain, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "modeled") {
		t.Fatal("modeled column rendered without modeled shares")
	}
	if !strings.Contains(plain.String(), "CONV/FC") || !strings.Contains(plain.String(), "80.0%") {
		t.Fatalf("table missing measured data:\n%s", plain.String())
	}
	var with strings.Builder
	if err := b.WriteTable(&with, map[string]float64{"CONV/FC": 0.75}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(with.String(), "modeled") || !strings.Contains(with.String(), "75.0%") {
		t.Fatalf("modeled column missing:\n%s", with.String())
	}
}

func TestCompareShares(t *testing.T) {
	rows := CompareShares(
		map[string]float64{"CONV/FC": 0.8, "BN": 0.2},
		map[string]float64{"CONV/FC": 0.7, "ReLU": 0.1},
	)
	want := []CompareRow{
		{Cat: "BN", Measured: 0.2},
		{Cat: "CONV/FC", Measured: 0.8, Modeled: 0.7},
		{Cat: "ReLU", Modeled: 0.1},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %+v, want %+v", rows, want)
	}
}
