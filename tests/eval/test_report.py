"""Tests for the combined report collector."""

from repro.eval.report import DEFAULT_SECTIONS, collect_report


class TestCollectReport:
    def test_includes_present_sections(self, tmp_path):
        (tmp_path / "table2.txt").write_text("TABLE TWO CONTENT")
        report = collect_report(tmp_path)
        assert "TABLE TWO CONTENT" in report
        assert "Table II" in report

    def test_missing_sections_flagged(self, tmp_path):
        report = collect_report(tmp_path)
        assert report.count("*(missing") == len(DEFAULT_SECTIONS)

    def test_writes_output_file(self, tmp_path):
        (tmp_path / "fig3.txt").write_text("FIG3")
        out = tmp_path / "REPORT.md"
        collect_report(tmp_path, output_path=out)
        assert out.exists()
        assert "FIG3" in out.read_text()

    def test_section_order_follows_paper(self, tmp_path):
        for slug, _ in DEFAULT_SECTIONS:
            (tmp_path / f"{slug}.txt").write_text(slug.upper())
        report = collect_report(tmp_path)
        positions = [report.index(slug.upper()) for slug, _ in DEFAULT_SECTIONS]
        assert positions == sorted(positions)
