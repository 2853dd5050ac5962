package repro

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docCommand is one `go run ./cmd/<tool>` command quoted in a document.
type docCommand struct {
	line  int // 1-based line the command starts on
	tool  string
	flags []string
}

var (
	// flagToken matches a command-line flag, not a negative number.
	flagToken = regexp.MustCompile(`^--?([A-Za-z][\w-]*)`)
	// usageFlag matches a flag line of the flag package's -h listing.
	usageFlag = regexp.MustCompile(`^\s+-([^\s=]+)`)
)

// docCommands extracts every `go run ./cmd/<tool>` command from a
// markdown document. Backslash-continued lines are joined first; a
// command's arguments end at a comment, a closing backtick or a shell
// operator.
func docCommands(doc string) []docCommand {
	var cmds []docCommand
	lines := strings.Split(doc, "\n")
	for i := 0; i < len(lines); i++ {
		start, text := i+1, lines[i]
		for strings.HasSuffix(strings.TrimRight(text, " \t"), `\`) && i+1 < len(lines) {
			text = strings.TrimSuffix(strings.TrimRight(text, " \t"), `\`) + " " + lines[i+1]
			i++
		}
		for _, part := range strings.Split(text, "go run ./cmd/")[1:] {
			if end := strings.IndexAny(part, "#`|;&<>"); end >= 0 {
				part = part[:end]
			}
			fields := strings.Fields(part)
			if len(fields) == 0 {
				continue
			}
			c := docCommand{line: start, tool: fields[0]}
			for _, f := range fields[1:] {
				if m := flagToken.FindStringSubmatch(f); m != nil {
					c.flags = append(c.flags, m[1])
				}
			}
			cmds = append(cmds, c)
		}
	}
	return cmds
}

// TestDocCommandsUseRealFlags checks every `go run ./cmd/<tool>` command
// in README.md and the verify notes against the flags `<tool> -h` lists,
// so a renamed or deleted flag cannot linger in a command readers copy.
func TestDocCommandsUseRealFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the command binaries")
	}
	bin := t.TempDir()
	goTool(t, "build", "-o", bin+string(filepath.Separator), "./cmd/...")
	known := map[string]map[string]bool{}
	flagsOf := func(tool string) map[string]bool {
		if flags, ok := known[tool]; ok {
			return flags
		}
		// Only the flag listing matters, not -h's exit status.
		out, _ := exec.Command(filepath.Join(bin, tool), "-h").CombinedOutput()
		flags := map[string]bool{"h": true, "help": true}
		for _, line := range strings.Split(string(out), "\n") {
			if m := usageFlag.FindStringSubmatch(line); m != nil {
				flags[m[1]] = true
			}
		}
		if len(flags) == 2 {
			t.Fatalf("%s -h listed no flags:\n%s", tool, out)
		}
		known[tool] = flags
		return flags
	}
	docs := []string{"README.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")}
	checked := 0
	for _, doc := range docs {
		blob, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range docCommands(string(blob)) {
			if _, err := os.Stat(filepath.Join(bin, c.tool)); err != nil {
				t.Errorf("%s:%d: go run ./cmd/%s: no such command", doc, c.line, c.tool)
				continue
			}
			flags := flagsOf(c.tool)
			for _, f := range c.flags {
				if !flags[f] {
					t.Errorf("%s:%d: go run ./cmd/%s: flag -%s is not defined", doc, c.line, c.tool, f)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("found no go run ./cmd/ commands to check")
	}
}

// TestDocCommandsParse pins docCommands' tokenising: continuation lines,
// comments, closing backticks, shell operators and negative numbers.
func TestDocCommandsParse(t *testing.T) {
	doc := "Run `go run ./cmd/cacheblend -figure 14` and `-fig 17`.\n" +
		"go run ./cmd/cacheblend-serve -router affinity \\\n" +
		"    -rates 8 -v   # -ignored\n" +
		"go test -bench=. ./... | go run ./cmd/benchjson -compare x.json > y\n" +
		"go run ./cmd/cacheblend-serve -ratio -0.5 --seed=3\n"
	got := docCommands(doc)
	want := []docCommand{
		{line: 1, tool: "cacheblend", flags: []string{"figure"}},
		{line: 2, tool: "cacheblend-serve", flags: []string{"router", "rates", "v"}},
		{line: 4, tool: "benchjson", flags: []string{"compare"}},
		{line: 5, tool: "cacheblend-serve", flags: []string{"ratio", "seed"}},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d commands, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].line != want[i].line || got[i].tool != want[i].tool ||
			strings.Join(got[i].flags, " ") != strings.Join(want[i].flags, " ") {
			t.Fatalf("command %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

var (
	// fuzzFunc matches a fuzz target's declaration in a test file.
	fuzzFunc = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(\w+ \*testing\.F\)`)
	// ciFuzz matches a fuzz smoke command: go test … -fuzz Target … ./pkg.
	ciFuzz = regexp.MustCompile(`(?m)-fuzz '?\^?(Fuzz\w+)\$?'? .* (\./\S+)\s*$`)
	// matrixFuzz matches one row of the weekly fuzz matrix.
	matrixFuzz = regexp.MustCompile(`(?m)target: (Fuzz\w+), package: (\./\S+) \}`)
)

// TestFuzzTargetsRunInCI finds every fuzz target under internal/ and
// requires it, with its package, in ci.yml's fuzz smoke and as a row of
// fuzz.yml's weekly matrix, so a new target cannot go unfuzzed. Every
// target the two files list must exist too: one renamed or moved away
// would fuzz nothing.
func TestFuzzTargetsRunInCI(t *testing.T) {
	targets := map[string]bool{} // "FuzzX ./internal/pkg"
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(blob), -1) {
			targets[m[1]+" ./"+filepath.ToSlash(filepath.Dir(path))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("found no fuzz targets under internal/")
	}
	for _, wf := range []struct {
		file string
		row  *regexp.Regexp
	}{{"ci.yml", ciFuzz}, {"fuzz.yml", matrixFuzz}} {
		blob, err := os.ReadFile(filepath.Join(".github", "workflows", wf.file))
		if err != nil {
			t.Fatal(err)
		}
		listed := map[string]bool{}
		for _, m := range wf.row.FindAllStringSubmatch(string(blob), -1) {
			listed[m[1]+" "+m[2]] = true
		}
		for target := range targets {
			if !listed[target] {
				t.Errorf("%s does not fuzz %s", wf.file, target)
			}
		}
		for target := range listed {
			if !targets[target] {
				t.Errorf("%s fuzzes %s, which is not a fuzz target", wf.file, target)
			}
		}
	}
}
