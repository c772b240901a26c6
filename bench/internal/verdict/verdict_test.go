package verdict

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestNormalizeFixtures feeds real r2r outputs of one campaign and one
// patch run, each taken cold and then warm from the store (the warm
// campaign also pruned): they differ only in execution accounting and
// wall time, so their normalized forms must be equal.
func TestNormalizeFixtures(t *testing.T) {
	for _, name := range []string{"campaign", "patch"} {
		cold := normalizeFile(t, name+"-cold.json")
		warm := normalizeFile(t, name+"-warm.json")
		if !bytes.Equal(cold, warm) {
			t.Errorf("%s: cold and warm outputs normalize differently:\n%s\n%s", name, cold, warm)
		}
		for key := range volatile {
			if bytes.Contains(cold, []byte(`"`+key+`"`)) {
				t.Errorf("%s: normalized output still holds %q", name, key)
			}
		}
	}
}

func TestNormalizeKeepsVerdicts(t *testing.T) {
	a, err := Normalize([]byte(`[{"name":"x","success":6,"elapsed_ms":3,"per_model":[{"success":6,"cache_hit":true}]}]`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Normalize([]byte(`[{"name":"x","success":7,"elapsed_ms":3,"per_model":[{"success":6}]}]`))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Error("a changed success count normalized away")
	}
	if want := `[{"name":"x","per_model":[{"success":6}],"success":6}]`; string(a) != want {
		t.Errorf("Normalize = %s, want %s", a, want)
	}
	if _, err := Normalize([]byte(`{"a":1} {"b":2}`)); err == nil {
		t.Error("trailing document accepted")
	}
	if Digest([]byte("ab"), []byte("c")) == Digest([]byte("a"), []byte("bc")) {
		t.Error("Digest ignores part boundaries")
	}
}

// TestManifestKeepsRawArgs sends an argument that is not UTF-8, as an
// oracle input can be, through the manifest's JSON unchanged.
func TestManifestKeepsRawArgs(t *testing.T) {
	arg := "-bad\xff\x00\x80"
	data, err := json.Marshal(Manifest{Requests: []Request{{Commands: [][][]byte{Args([]string{"campaign", arg})}}}})
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if got := string(m.Requests[0].Commands[0][1]); got != arg {
		t.Errorf("argument %q came back as %q", arg, got)
	}
}

func normalizeFile(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Normalize(data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
