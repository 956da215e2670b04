"""Root of the mini package; ``repro.kge`` below is an RPR010 entry package."""
