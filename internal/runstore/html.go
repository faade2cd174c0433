package runstore

import (
	"fmt"
	"html/template"
	"io"
	"time"
)

// htmlReport is the template payload for WriteHTML.
type htmlReport struct {
	Title    string
	Now      string
	Runs     []htmlRun
	MaxIPC   float64
	Sentinel *Report
	Diff     *DiffReport
	DiffRows []DiffRow
}

type htmlRun struct {
	ID          string
	Kind        string
	Kernel      string
	IQSize      int
	Reuse       bool
	Fingerprint string
	Cycles      uint64
	IPC         float64
	BarPct      float64 // IPC as a percentage of the page's max IPC
	Wall        string
	Start       string
	Err         string
}

// WriteHTML renders a self-contained HTML report: recent-run history with an
// IPC chart, the sentinel verdict, and (when non-nil) a counter diff table.
// Everything is inlined — one file, no external assets.
func WriteHTML(w io.Writer, title string, recs []Record, sentinel *Report, diff *DiffReport) error {
	data := htmlReport{
		Title:    title,
		Now:      time.Now().UTC().Format(time.RFC3339),
		Sentinel: sentinel,
		Diff:     diff,
	}
	if diff != nil {
		data.DiffRows = diff.Changed()
	}
	for i := range recs {
		r := &recs[i]
		if r.IPC > data.MaxIPC {
			data.MaxIPC = r.IPC
		}
	}
	for i := range recs {
		r := &recs[i]
		hr := htmlRun{
			ID: r.ID, Kind: r.Kind, Kernel: r.Kernel, IQSize: r.IQSize,
			Reuse: r.Reuse, Fingerprint: r.Fingerprint,
			Cycles: r.Cycles, IPC: r.IPC,
			Wall:  r.Host.Wall().Round(time.Millisecond).String(),
			Start: r.Start.UTC().Format("2006-01-02 15:04:05"),
			Err:   r.Err,
		}
		if data.MaxIPC > 0 {
			hr.BarPct = 100 * r.IPC / data.MaxIPC
		}
		data.Runs = append(data.Runs, hr)
	}
	return reportTmpl.Execute(w, data)
}

var reportTmpl = template.Must(template.New("report").Funcs(template.FuncMap{
	"f3": func(v float64) string { return fmt.Sprintf("%.3f", v) },
	"cell": func(r DiffRow) [2]string {
		return [2]string{fmtValue(r.A, r.AOK, r.Integer), fmtValue(r.B, r.BOK, r.Integer)}
	},
	"delta": deltaCell,
	"pct":   pctCell,
}).Parse(`<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{{.Title}}</title>
<style>
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --text-muted: #898781;
  --gridline: #e1e0d9;
  --baseline: #c3c2b7;
  --series-1: #2a78d6;
  --status-critical: #d03b3b;
  --status-good: #0ca30c;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted: #898781;
    --gridline: #2c2c2a;
    --baseline: #383835;
    --series-1: #3987e5;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19;
  --text-primary: #ffffff;
  --text-secondary: #c3c2b7;
  --text-muted: #898781;
  --gridline: #2c2c2a;
  --baseline: #383835;
  --series-1: #3987e5;
}
.viz-root {
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--surface-1);
  color: var(--text-primary);
  margin: 0;
  padding: 24px;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; color: var(--text-primary); }
.sub { color: var(--text-muted); font-size: 12px; margin-bottom: 20px; }
table { border-collapse: collapse; font-size: 13px; }
th { text-align: left; color: var(--text-secondary); font-weight: 600;
     border-bottom: 1px solid var(--baseline); padding: 4px 12px 4px 0; }
td { border-bottom: 1px solid var(--gridline); padding: 4px 12px 4px 0;
     font-variant-numeric: tabular-nums; }
td.name { font-variant-numeric: normal; }
.bar-wrap { width: 160px; background: none; }
.bar { height: 10px; background: var(--series-1); border-radius: 0 4px 4px 0; min-width: 2px; }
.ok { color: var(--status-good); font-weight: 600; }
.fail { color: var(--status-critical); font-weight: 600; }
.muted { color: var(--text-muted); }
code { font-size: 12px; }
</style>
</head>
<body class="viz-root">
<h1>{{.Title}}</h1>
<div class="sub">generated {{.Now}} · reuseiq run ledger</div>

{{if .Sentinel}}
<h2>Regression sentinel</h2>
{{if .Sentinel.Pass}}<div class="ok">PASS — every fingerprint-identical repeat is bit-identical in its modeled counters</div>
{{else}}<div class="fail">FAIL — modeled counters drifted between fingerprint-identical runs</div>{{end}}
<table>
<tr><th>fingerprint</th><th>kernel</th><th>runs</th><th>drifts</th><th>wall median</th><th>outliers</th></tr>
{{range .Sentinel.Groups}}
<tr>
<td class="name"><code>{{.Fingerprint}}</code></td>
<td class="name">{{.Kernel}}</td>
<td>{{len .RunIDs}}</td>
<td>{{if .Drifts}}<span class="fail">{{len .Drifts}}</span>{{else}}<span class="ok">0</span>{{end}}</td>
<td>{{.WallMedianNS}} ns</td>
<td>{{len .Outliers}}</td>
</tr>
{{range .Drifts}}
<tr><td class="name muted" colspan="6">drift {{.Name}}: {{.BaseID}}={{.Base}} vs {{.RunID}}={{.Run}}</td></tr>
{{end}}
{{end}}
</table>
{{end}}

<h2>Recent runs</h2>
<table>
<tr><th>start (UTC)</th><th>id</th><th>kind</th><th>kernel</th><th>iq</th><th>reuse</th><th>cycles</th><th>IPC</th><th></th><th>wall</th></tr>
{{range .Runs}}
<tr{{if .Err}} title="error: {{.Err}}"{{end}}>
<td>{{.Start}}</td>
<td class="name"><code>{{.ID}}</code></td>
<td class="name">{{.Kind}}</td>
<td class="name">{{if .Kernel}}{{.Kernel}}{{else}}<span class="muted">asm</span>{{end}}</td>
<td>{{.IQSize}}</td>
<td class="name">{{if .Reuse}}reuse{{else}}base{{end}}</td>
<td>{{.Cycles}}</td>
<td>{{f3 .IPC}}</td>
<td class="bar-wrap"><div class="bar" style="width:{{printf "%.1f" .BarPct}}%"
  title="{{if .Kernel}}{{.Kernel}} {{end}}iq={{.IQSize}} IPC {{f3 .IPC}}"></div></td>
<td>{{.Wall}}</td>
</tr>
{{end}}
</table>

{{if .Diff}}
<h2>Counter diff — changed metrics</h2>
<div class="sub">A: {{.Diff.ALabel}} (n={{.Diff.ACount}}) · B: {{.Diff.BLabel}} (n={{.Diff.BCount}})</div>
<table>
<tr><th>metric</th><th>A</th><th>B</th><th>delta</th><th>%</th></tr>
{{range .DiffRows}}{{$c := cell .}}
<tr><td class="name">{{.Name}}</td><td>{{index $c 0}}</td><td>{{index $c 1}}</td><td>{{delta .}}</td><td>{{pct .}}</td></tr>
{{end}}
</table>
{{end}}
</body>
</html>
`))
